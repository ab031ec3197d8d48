"""Independent arithmetic that the benchmark checks the program's outputs against.

Nothing here imports afrokhlin.  Factors are read straight from the action
documents the benchmark generated, products are plain integer products with
no gcd reduction, and tail remainders use the elementary bound
prod_{j>J} (1 - x_j) >= 1 - sum_{j>J} x_j (the route of tests/oracles.py).

Rationals are kept as (numerator, denominator) pairs with a positive
denominator and compared by cross-multiplication, so no huge gcd is paid.
"""

from __future__ import annotations

from fractions import Fraction

# ---------------------------------------------------------------------------
# factors of an action document


def _raw_tail_pair(tail: dict, j: int, power: int) -> tuple[int, int]:
    if tail["kind"] == "periodic":
        pairs = tail["pairs"]
        return tuple(pairs[(j - 1) % len(pairs)])
    return (
        tail["alpha"] * power + tail["beta"],
        tail["gamma"] * power + tail["delta"],
    )


def factors(doc: dict, lo: int, hi: int):
    """Normalized (p, q), p >= q, of factors lo..hi (1-based, inclusive)."""
    prefix = doc["prefix"]
    n0 = len(prefix)
    tail = doc["tail"]
    power = None
    for n in range(max(lo, 1), hi + 1):
        if n <= n0:
            p, q = prefix[n - 1]
        else:
            j = n - n0
            if tail["kind"] == "none":
                raise IndexError(f"factor {n} beyond a finite action")
            if tail["kind"] == "affine_power":
                power = tail["B"] ** j if power is None else power * tail["B"]
            p, q = _raw_tail_pair(tail, j, power)
        yield (p, q) if p >= q else (q, p)


def size_and_diff(doc: dict, m: int, n: int) -> tuple[int, int]:
    """Products of p + q and of p - q over factors m+1..n."""
    size = diff = 1
    for p, q in factors(doc, m + 1, n):
        size *= p + q
        diff *= p - q
    return size, diff


def sign_counts(pairs) -> tuple[int, int]:
    """Tensor diagonal +-1 matrices literally and count both eigenvalues."""
    vec = [1]
    for p, q in pairs:
        vec = [a * b for a in vec for b in [1] * p + [-1] * q]
    plus = vec.count(1)
    return max(plus, len(vec) - plus), min(plus, len(vec) - plus)


# ---------------------------------------------------------------------------
# closed-form tail rules


def tail_settles(doc: dict) -> tuple[int, int, int] | None:
    """(A, B, e) for an affine tail whose smaller rank settles at e; else None."""
    t = doc["tail"]
    if t["kind"] != "affine_power" or abs(t["alpha"] - t["gamma"]) != t["A"]:
        return None
    e = t["delta"] if t["gamma"] == 0 else t["beta"]
    return t["A"], t["B"], e


def zero_gap_indices(doc: dict) -> tuple[list[int], bool]:
    """Finite list of indices with p == q, and whether zero gaps recur."""
    prefix = doc["prefix"]
    n0 = len(prefix)
    found = [i + 1 for i, (p, q) in enumerate(prefix) if p == q]
    t = doc["tail"]
    if t["kind"] == "periodic":
        return found, any(p == q for p, q in t["pairs"])
    if t["kind"] == "affine_power":
        c, d = t["alpha"] - t["gamma"], t["delta"] - t["beta"]
        if c == 0:
            return found, d == 0
        power, j = t["B"], 1
        while abs(c) * power <= abs(d):
            if c * power == d:
                found.append(n0 + j)
            power *= t["B"]
            j += 1
    return found, False


def zero_gap_after(doc: dict, stage: int) -> bool:
    found, recurs = zero_gap_indices(doc)
    return recurs or any(i > stage for i in found)


def tail_vanishes(doc: dict) -> bool:
    """Every tail gap product is zero: a recurring gap below 1."""
    t = doc["tail"]
    if t["kind"] == "periodic":
        return any(min(p, q) > 0 for p, q in t["pairs"])
    return abs(t["alpha"] - t["gamma"]) < t["A"]


def outer(doc: dict) -> bool:
    """Infinitely many factors have a nonzero smaller rank."""
    t = doc["tail"]
    if t["kind"] == "periodic":
        return any(min(p, q) > 0 for p, q in t["pairs"])
    if t["alpha"] > 0 and t["gamma"] > 0:
        return True
    return (t["delta"] if t["gamma"] == 0 else t["beta"]) > 0


def expected_verdicts(doc: dict) -> dict[str, str]:
    found, recurs = zero_gap_indices(doc)
    yn = {True: "yes", False: "no"}
    return {
        "strict_rokhlin": yn[recurs],
        "tracial_rokhlin": yn[tail_vanishes(doc)],
        "outer": yn[outer(doc)],
        "crossed_product_simple": yn[outer(doc)],
        "crossed_product_uhf": yn[recurs],
        "extreme_trace_count": 1 if tail_vanishes(doc) else 2,
    }


def last_zero_index(doc: dict) -> int:
    found, _ = zero_gap_indices(doc)
    return max(found, default=0)


# ---------------------------------------------------------------------------
# tail enclosures


def tail_enclosure(doc: dict, m: int, depth: int):
    """Enclosure ((lo_num, lo_den), (hi_num, hi_den)) of prod_{n>m} gap(n).

    Needs a tail with a positive product and no zero gap beyond m: a periodic
    tail of gap-one factors, or an affine tail whose smaller rank settles.
    ``depth`` is how many tail positions past the later of m and the prefix
    are multiplied out before the remainder bound takes over.
    """
    n0 = len(doc["prefix"])
    t = doc["tail"]
    if t["kind"] == "periodic":
        if any(q for _, q in t["pairs"]):
            raise ValueError("periodic tail product is not positive")
        size, diff = size_and_diff(doc, m, max(m, n0))
        return (diff, size), (diff, size)
    settle = tail_settles(doc)
    if settle is None:
        raise ValueError("affine tail product is not positive")
    A, B, e = settle
    if A * B < 2 * e:
        raise ValueError("remainder bound needs A*B >= 2e")
    J = max(m - n0, 0) + depth
    size, diff = size_and_diff(doc, m, n0 + J)
    # remainder r = 2e / (A (B - 1) B^J);  lo = diff/size * (1 - r)
    r_den = A * (B - 1) * B**J
    r_num = 2 * e
    return (diff * (r_den - r_num), size * r_den), (diff, size)


def le(a, b) -> bool:
    """a <= b for (num, den) pairs with positive denominators."""
    return a[0] * b[1] <= b[0] * a[1]


def pair(x) -> tuple[int, int]:
    x = Fraction(x) if not isinstance(x, Fraction) else x
    return x.numerator, x.denominator


def intersects(lo1, hi1, lo2, hi2) -> bool:
    return le(lo1, hi2) and le(lo2, hi1)


def half_plus(x, sign: int):
    """(1 + sign * x) / 2 for a (num, den) pair."""
    return x[1] + sign * x[0], 2 * x[1]


def push_forward(doc: dict, a: int, b: int, stage: int, to: int) -> tuple[int, int]:
    for p, q in factors(doc, stage + 1, to):
        a, b = p * a + q * b, q * a + p * b
    return a, b


# ---------------------------------------------------------------------------
# integers


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def small_primes_of(n: int) -> set[int]:
    """Prime divisors of a small positive integer by trial division."""
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def check_supernatural(doc: dict, exps: dict) -> str | None:
    """exps maps prime -> exponent (int) or 'inf'; compare with the sizes."""
    t = doc["tail"]
    recurring_sizes = (
        [p + q for p, q in t["pairs"]] if t["kind"] == "periodic" else [t["A"], t["B"]]
    )
    recurring = set().union(*(small_primes_of(s) for s in recurring_sizes))
    inf = {p for p, e in exps.items() if e == "inf"}
    if inf != recurring:
        return f"infinite primes {sorted(inf)} != primes of recurring sizes {sorted(recurring)}"
    finite = 1
    for p, e in exps.items():
        if not is_prime(p):
            return f"{p} listed as a prime"
        if e != "inf":
            finite *= p**e
    rest = 1
    for p, q in doc["prefix"]:
        s = p + q
        for r in recurring:
            while s % r == 0:
                s //= r
        rest *= s
    if finite != rest:
        return f"finite part {finite} != prefix sizes without recurring primes {rest}"
    return None


# ---------------------------------------------------------------------------
# G-sets


def identity_of(table) -> int | None:
    k = len(table)
    for e in range(k):
        if all(table[e][h] == h and table[h][e] == h for h in range(k)):
            return e
    return None


def tower_problem(doc: dict, base_names, translates_names) -> str | None:
    """Check that a tower from the program partitions the G-set document."""
    index = {name: i for i, name in enumerate(doc["elements"])}
    action = doc["action"]
    k, n = len(action), len(doc["elements"])
    base = [index[x] for x in base_names]
    if len(set(base)) != len(base) or len(base) * k != n:
        return f"base has {len(base)} points, expected {n // k}"
    seen: set[int] = set()
    for g in range(k):
        mine = {action[g][x] for x in base}
        if len(mine) != len(base) or seen & mine:
            return f"translate {g} collides"
        if translates_names is not None and mine != {index[x] for x in translates_names[g]}:
            return f"translate {g} differs from the action applied to the base"
        seen |= mine
    if len(seen) != n:
        return "translates miss points"
    return None


def broken_axiom(doc: dict) -> set[str]:
    """Every axiom class the G-set document breaks, found by brute force."""
    out = set()
    elements, table, action = doc.get("elements"), doc.get("group", {}).get("table"), doc.get("action")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        return {"structure"}
    if not isinstance(table, list) or not isinstance(action, list):
        return {"structure"}
    k, n = len(table), len(elements)
    if doc["group"].get("order", k) != k or any(not isinstance(r, list) or len(r) != k for r in table):
        return {"structure"}
    if any(not isinstance(r, list) or len(r) != n for r in action) or len(action) != k:
        return {"structure"}
    e = identity_of(table)
    if e is None:
        out.add("identity")
    if any(sorted(r) != list(range(k)) for r in table) or any(
        sorted(r) != list(range(n)) for r in action
    ):
        out.add("permutation")
    if any(
        table[table[g][h]][l] != table[g][table[h][l]]
        for g in range(k)
        for h in range(k)
        for l in range(k)
    ):
        out.add("associativity")
    if e is not None and action[e] != list(range(n)):
        out.add("identity")
    if any(
        action[table[g][h]][x] != action[g][action[h][x]]
        for g in range(k)
        for h in range(k)
        for x in range(n)
    ):
        out.add("compatibility")
    return out
