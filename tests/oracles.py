"""Independent oracles the real implementations are checked against.

Each oracle takes a route the implementation under test never uses:
condensation is checked by literally tensoring diagonal sign matrices and
counting eigenvalues, push-forwards by the stage matrices applied one stage
at a time, trace weights by the mixing matrices applied to their ends,
positivity by brute-force search over the reachable stages of a truncated
system plus the exact end rule of a known tail, tail
products by deep partial products with elementary remainder bounds, the
rounded tail enclosures by the exact `Fraction` partial product they replace
and by the rounded loop over whole factors read one index at a time,
the positivity scan by the exact stage products it rounds, the tracial
witness by the cutoff enclosure its shallow shortcut skips,
the tail-family facts by scanning the factors of a tail one position at a
time, G-set validation by checking every triple of the group and action
axioms, greedy towers by scanning every row for a fixed point and
recomputing the saturation of the base at every step, and the closed form
of the torsion family by the general presentation colimit engine it
replaced.  That engine's Smith diagonal is checked against sympy's
invariant factors instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count

from afrokhlin import (
    ActionSpec,
    FgAbPresentation,
    FiniteActionError,
    K0Element,
    PeriodicTail,
    RankPair,
    RatInterval,
    SupernaturalNumber,
    TailPositive,
    TailZero,
)
from afrokhlin.actions import _factorize
from afrokhlin.cantor import (
    FiniteGSet,
    InvalidCover,
    NotFreeError,
    Tower,
)
from afrokhlin.intervals import round_down, round_up
from afrokhlin.products import first_zero_gap_after, gap_product_tail


def sign_tensor_counts(pairs) -> tuple[int, int]:
    """Tensor diagonal +-1 matrices and count the eigenvalues directly."""
    vec = [1]
    for pair in pairs:
        factor = [1] * pair.p + [-1] * pair.q
        vec = [a * b for a in vec for b in factor]
    plus = sum(1 for x in vec if x > 0)
    return (max(plus, len(vec) - plus), min(plus, len(vec) - plus))


@dataclass(frozen=True)
class TransitionMatrix:
    """Stage map [[p, q], [q, p]] on Z^2, built from normalized factor ranks."""

    p: int
    q: int

    def __post_init__(self):
        if not (self.p >= self.q >= 0) or self.p + self.q < 1:
            raise ValueError(f"bad transition ranks ({self.p}, {self.q})")

    @property
    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.p, self.q), (self.q, self.p))

    def apply(self, vec: tuple[int, int]) -> tuple[int, int]:
        a, b = vec
        return (self.p * a + self.q * b, self.q * a + self.p * b)


def transition(spec: ActionSpec, n: int) -> TransitionMatrix:
    f = spec.factor(n)
    return TransitionMatrix(f.p, f.q)


@dataclass(frozen=True)
class MixingMatrix:
    """The doubly stochastic matrix with entries (1 +- lam)/2, for exact lam in [0, 1].

    Multiplicative in lam: the product of the matrices for lam and mu is the
    matrix for lam * mu, and lam = 1 gives the identity.
    """

    lam: Fraction

    @property
    def entries(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        same, cross = (1 + self.lam) / 2, (1 - self.lam) / 2
        return ((same, cross), (cross, same))

    def apply(self, r: tuple[Fraction, Fraction], s: tuple[Fraction, Fraction]):
        """Map weight enclosures r = (lo, hi) and s = (lo, hi) to enclosures of
        the weights one stage earlier; the entries are >= 0, so ends go to ends."""
        (same, cross), _ = self.entries
        new_r = tuple(same * a + cross * b for a, b in zip(r, s))
        new_s = tuple(cross * a + same * b for a, b in zip(r, s))
        return new_r, new_s


def reference_round_down(x: Fraction) -> Fraction:
    """Largest 12-digit decimal <= x, with the scale grown one 10^6 step at a
    time, one full division each, until a positive x rounds to a positive value."""
    x = Fraction(x)
    scale = 10**12
    out = Fraction(x.numerator * scale // x.denominator, scale)
    while x > 0 and out <= 0:
        scale *= 10**6
        out = Fraction(x.numerator * scale // x.denominator, scale)
    return out


def reference_round_down_above(x: Fraction, bound: Fraction) -> Fraction:
    """Largest decimal <= x at the fewest digits, at least 12, that exceeds
    bound < x, with the digit count grown one at a time, one full division each."""
    x = Fraction(x)
    scale = 10**12
    out = Fraction(x.numerator * scale // x.denominator, scale)
    while out <= bound:
        scale *= 10
        out = Fraction(x.numerator * scale // x.denominator, scale)
    return out


def reference_decimal_str(fr: Fraction) -> str:
    """Exact decimal rendering when the denominator allows one, else p/q, with
    the fives counted by dividing them out of the denominator one at a time."""
    num, den = fr.numerator, fr.denominator
    twos = (den & -den).bit_length() - 1
    d = den >> twos
    fives = 0
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return str(fr)
    k = max(twos, fives)
    scaled = abs(num) * 10**k // den
    sign = "-" if num < 0 else ""
    whole, part = divmod(scaled, 10**k)
    if k == 0 or part == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + str(part).rjust(k, "0").rstrip("0")


# Truncated-system tails the cone oracle knows exact end rules for.
TAIL_IDENTITY = "identity"  # append (1, 0) forever: nothing changes
TAIL_SYMMETRIC = "symmetric"  # append (1, 1) forever: v dies at the next stage
TAIL_MIXING = "mixing"  # append (2, 1) forever: gap products vanish

ORACLE_TAILS = {
    TAIL_IDENTITY: RankPair(1, 0),
    TAIL_SYMMETRIC: RankPair(1, 1),
    TAIL_MIXING: RankPair(2, 1),
}


def truncated_spec(name: str, factors, tail_kind: str) -> ActionSpec:
    return ActionSpec(name, tuple(factors), PeriodicTail((ORACLE_TAILS[tail_kind],)))


def cone_oracle(factors, tail_kind: str, el: K0Element) -> bool:
    """Brute-force positivity over all reachable truncated stages, then the
    exact rule of the appended tail."""
    vec = (el.a, el.b)
    if min(vec) >= 0:
        return True
    for n in range(el.stage + 1, len(factors) + 1):
        p, q = factors[n - 1].p, factors[n - 1].q
        vec = (p * vec[0] + q * vec[1], q * vec[0] + p * vec[1])
        if min(vec) >= 0:
            return True
    u = vec[0] + vec[1]
    v = vec[0] - vec[1]
    if tail_kind == TAIL_IDENTITY:
        return False
    if tail_kind == TAIL_SYMMETRIC:
        return u >= 0
    # mixing: gap products shrink to zero, so only the scale-invariant data
    # u > 0, or the zero class, can ever enter the cone
    return u > 0 or (u == 0 and v == 0)


def dyadic_euler_interval(terms: int = 120) -> tuple[Fraction, Fraction]:
    """Certified enclosure of prod_{j>=1} (1 - 2**-j) by partial products.

    The remainder satisfies prod_{j>J}(1 - 2**-j) >= 1 - sum_{j>J} 2**-j
    = 1 - 2**-J, so [partial * (1 - 2**-J), partial] brackets the limit.
    """
    partial = Fraction(1)
    for j in range(1, terms + 1):
        partial *= 1 - Fraction(1, 2**j)
    return partial * (1 - Fraction(1, 2**terms)), partial


def exact_gap_product_tail(spec: ActionSpec, m: int, cutoff: int):
    """gap_product_tail with the exact partial product in every result: the
    positive enclosure is [P * (1 - r), P] for the exact Fraction P of the
    factors up to the certified depth, reduced at every step."""
    if m < 0:
        raise ValueError(f"range start must be >= 0, got {m}")
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    if spec.tail is None:
        raise FiniteActionError("tail products need an infinite action")
    n0 = len(spec.prefix)
    z = first_zero_gap_after(spec, m)
    if z is not None:
        return TailZero(zero_index=z)
    tail = spec.tail
    divergence = tail.divergence()
    if divergence is not None:
        return TailZero(divergence=divergence)
    settle = tail.settle_depth()
    if settle > cutoff:
        return RatInterval(Fraction(0), _reduced_gap_product(spec, m, max(m, n0 + cutoff)))
    depth = max(settle, m - n0)
    if tail.remainder_bound(depth):
        depth += cutoff
    partial = _reduced_gap_product(spec, m, n0 + depth)
    return TailPositive(partial * (1 - tail.remainder_bound(depth)), partial)


def _reduced_gap_product(spec: ActionSpec, m: int, n: int) -> Fraction:
    """Gap ratios of factors m+1 .. n multiplied one factor at a time, each
    step a reduced Fraction, instead of the package's unreduced factor walk."""
    partial = Fraction(1)
    for i in range(m + 1, n + 1):
        partial *= spec.factor(i).gap
    return partial


def reference_enclose_gap_product(spec: ActionSpec, m: int, n: int, prec: int, shifts=None):
    """_enclose_gap_product one factor at a time through ``spec.factor(i)``,
    multiplying each rounded mantissa by the whole a = p - q and dividing by
    the whole b = p + q; the shifts of the rounded steps are appended to
    ``shifts`` when it is a list."""
    i, num, den = m, 1, 1
    while den.bit_length() <= prec:
        if i == n:
            return Fraction(num, den), Fraction(num, den)
        i += 1
        f = spec.factor(i)
        num, den = num * (f.p - f.q), den * f.size
    steps = [(num, den)] + [(f.p - f.q, f.size) for f in map(spec.factor, range(i + 1, n + 1))]
    lo = hi = 1
    scale = 0
    for a, b in steps:
        shift = prec + b.bit_length() - (hi * a).bit_length()
        if shifts is not None:
            shifts.append(shift)
        if shift >= 0:
            lo, hi = (lo * a << shift) // b, -((-hi * a << shift) // b)
        else:
            lo, hi = (lo * a >> -shift) // b, -((-hi * a >> -shift) // b)
        scale += shift
    return Fraction(lo, 1 << scale), Fraction(hi, 1 << scale)


def reference_cone_scan(spec: ActionSpec, s: int, u: int, absv: int):
    """Yield (n, |v| * diff <= u * size) for n = s, s + 1, ... from the exact
    unreduced stage products, multiplied one ``spec.factor(n)`` at a time."""
    diff = size = 1
    for n in count(s):
        if n > s:
            f = spec.factor(n)
            diff, size = diff * (f.p - f.q), size * f.size
        yield n, absv * diff <= u * size


def reference_tracial_witness(spec: ActionSpec, cutoff: int) -> dict:
    """The tracial Rokhlin witness read from `gap_product_tail` at the cutoff
    itself, with the positive enclosure rounded outward to 12 digits."""
    if spec.tail.divergence() is not None:
        m = len(spec.prefix)
    else:
        m, z = 0, first_zero_gap_after(spec, 0)
        while z is not None:
            m, z = z, first_zero_gap_after(spec, z)
    result = gap_product_tail(spec, m, cutoff)
    if isinstance(result, TailZero):
        witness = {"kind": "vanishing_tail_products"}
        if result.zero_index is not None:
            witness["recurring_zero_gap_index"] = result.zero_index
        else:
            witness["divergence"] = result.divergence
        return {**witness, **spec.tail.gap_limit()}
    if type(result) is RatInterval:
        return {"kind": "cutoff_exhausted", "cutoff": cutoff, "m": m, "partial_upper": round_up(result.hi)}
    return {
        "kind": "positive_tail_product",
        "m": m,
        "lower": round_down(result.lower),
        "upper": round_up(result.upper),
    }


def tower_base_exists(gs: FiniteGSet) -> bool:
    """Exhaustive search for a base whose translates partition the set."""
    if gs.size % gs.order:
        return False
    want = gs.size // gs.order
    for base in combinations(range(gs.size), want):
        seen: set[int] = set()
        ok = True
        for g in range(gs.order):
            translate = {gs.action[g][x] for x in base}
            if len(translate) != want or seen & translate:
                ok = False
                break
            seen |= translate
        if ok and len(seen) == gs.size:
            return True
    return False


def reference_gset_error(elements, table, action) -> str | None:
    """The first axiom violation in the order FiniteGSet reports them, found
    by checking all k**3 associativity and k**2 * n compatibility triples;
    None for a valid G-set."""
    k = len(table)
    n = len(elements)
    if k < 1:
        return "group must have at least one element"
    if n < 1:
        return "the acted-on set must be nonempty"
    for i, name in enumerate(elements):
        if name in elements[:i]:
            return f"element name {name!r} is repeated"
    if any(len(row) != k for row in table):
        return "multiplication table must be square"
    if any(not (0 <= v < k) for row in table for v in row):
        return "multiplication table entries out of range"
    identity = None
    for e in range(k):
        if all(table[e][h] == h and table[h][e] == h for h in range(k)):
            identity = e
            break
    if identity is None:
        return "multiplication table has no identity element"
    for g in range(k):
        if sorted(table[g]) != list(range(k)):
            return f"row {g} of the multiplication table is not a permutation"
    for g in range(k):
        for h in range(k):
            for l in range(k):
                if table[table[g][h]][l] != table[g][table[h][l]]:
                    return "multiplication table is not associative"
    if len(action) != k or any(len(row) != n for row in action):
        return "action table must have one row of size |X| per group element"
    if any(not (0 <= v < n) for row in action for v in row):
        return "action table entries out of range"
    if list(action[identity]) != list(range(n)):
        return "identity must act trivially"
    for g in range(k):
        if sorted(action[g]) != list(range(n)):
            return f"group element {g} does not act by a permutation"
        for h in range(k):
            for x in range(n):
                if action[table[g][h]][x] != action[g][action[h][x]]:
                    return "action is not compatible with the group product"
    return None


def reference_fixed_point(gs: FiniteGSet) -> tuple[int, int] | None:
    """The first (g, x) in row order with g.x == x and g not the identity of
    the table, by testing every entry; None for a free action."""
    identity = next(
        e for e in range(gs.order) if all(gs.table[e][h] == h for h in range(gs.order))
    )
    for g in range(gs.order):
        for x in range(gs.size):
            if g != identity and gs.action[g][x] == x:
                return g, x
    return None


def reference_greedy_tower(gs: FiniteGSet, cover) -> Tower:
    """greedy_tower with every translate built as a set: freeness by a scan
    of every row for a fixed point, then all collisions, then the union, then
    each cover set adds the points outside the saturation of the base so far,
    recomputed from scratch."""
    witness = reference_fixed_point(gs)
    if witness is not None:
        g, x = witness
        raise NotFreeError(
            g, x, f"action is not free: group element {g} fixes {gs.elements[x]!r} (index {x})"
        )
    cover = [frozenset(k) for k in cover]
    for idx, k in enumerate(cover):
        translates = [gs.translate(g, k) for g in range(gs.order)]
        total = sum(len(t) for t in translates)
        if len(frozenset().union(*translates)) != total:
            raise InvalidCover(f"cover set {idx} has colliding translates", index=idx)
    covered = frozenset().union(
        *(gs.translate(g, k) for k in cover for g in range(gs.order))
    ) if cover else frozenset()
    if covered != frozenset(range(gs.size)):
        raise InvalidCover("cover union insufficient: orbits of the cover miss the set")
    base: frozenset[int] = frozenset()
    for k in cover:
        saturation = frozenset().union(
            *(gs.translate(g, base) for g in range(gs.order))
        ) if base else frozenset()
        base = base | frozenset(x for x in k if x not in saturation)
    return Tower(base=base, translates=tuple(gs.translate(g, base) for g in range(gs.order)))


def _small_primes(n: int, bound: int = 100) -> set[int]:
    out = set()
    for d in range(2, bound):
        while n % d == 0:
            out.add(d)
            n //= d
    assert n == 1, "factor size has a prime beyond the oracle's trial bound"
    return out


def scanned_tail_facts(tail, depth: int = 40) -> dict:
    """Tail facts read off pair_at(j) for j = 1 .. 2*depth, never from a
    closed form.  Positions past ``depth`` stand for the eventual behaviour:
    the generated tails (periods <= 3, offsets below 13) settle long before.
    """
    pairs = [tail.pair_at(j) for j in range(1, 2 * depth + 1)]
    late = pairs[depth:]
    ranks = [p.q for p in late]
    return {
        "pairs": pairs,
        "zeros": [j for j, p in enumerate(pairs, 1) if p.symmetric],
        "zero_recurs": any(p.symmetric for p in late),
        "diverges": sum(1 - p.gap for p in late) >= 1,
        "gap_sup": max(p.gap for p in late),
        "first_nonzero_rank": next((j for j, p in enumerate(pairs, 1) if p.q > 0), None),
        "rank_recurs": any(ranks),
        "rank_grows": all(a < b for a, b in zip(ranks, ranks[1:])),
        "late_ranks": set(ranks),
        "primes": set().union(*(_small_primes(p.size) for p in late)),
    }


# ----------------------------------------------------------------------------
# The presentation colimit engine that `torsion` once ran: colimits of a fixed
# finitely generated abelian presentation under a cycle of block-diagonal
# self-maps, with the torsion part the stable image of the torsion block, read
# off one Smith diagonal.  It is the reference for `torsion_family_k0`, and
# sympy's invariant factors are the reference for its Smith diagonal.

Matrix = list[list[int]]


def mat_mul(a, b) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def _smith_diagonal(mat) -> list[int]:
    """The diagonal of the Smith normal form of an integer matrix.

    Unimodular row and column operations bring the matrix to a diagonal of
    nonnegative invariant factors dividing in sequence; the diagonal is read
    off at the end.  Step t takes as pivot the entry of least nonzero size in
    the block from (t, t) on, the first in row-major order among ties, swaps
    it to (t, t) and reduces the rows below and the columns right of it by
    floor division.  A remainder left in row or column t picks a new, smaller
    pivot.  Once both are clear, the first lower row with an entry the pivot
    does not divide is added to row t, and the step picks again.
    """
    A = [list(row) for row in mat]
    rows, cols = len(A), len(A[0]) if A else 0
    for t in range(min(rows, cols)):
        # a zero block leaves the loop at once, with A[t][t] = 0
        while cells := [
            (abs(x), i, j) for i in range(t, rows) for j, x in enumerate(A[i][t:], t) if x
        ]:
            _, i0, j0 = min(cells)
            A[t], A[i0] = A[i0], A[t]
            for row in A:
                row[t], row[j0] = row[j0], row[t]
            pivot = A[t][t]
            for i in range(t + 1, rows):
                if q := A[i][t] // pivot:
                    A[i] = [x - q * y for x, y in zip(A[i], A[t])]
            for j in range(t + 1, cols):
                if q := A[t][j] // pivot:
                    for row in A:
                        row[j] -= q * row[t]
            if any(A[i][t] for i in range(t + 1, rows)) or any(A[t][t + 1:]):
                continue
            offender = next(
                (i for i in range(t + 1, rows) if any(x % pivot for x in A[i][t + 1:])),
                None,
            )
            if offender is None:
                break
            A[t] = [x + y for x, y in zip(A[t], A[offender])]
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
    return [A[t][t] for t in range(min(rows, cols))]


def _check_colimit_map(mat, free: int, orders: tuple[int, ...]) -> Matrix:
    # a list or tuple of rows of ints; the first unsupported entry in
    # row-major order is named
    size = free + len(orders)
    if not (
        isinstance(mat, (list, tuple))
        and all(isinstance(row, (list, tuple)) for row in mat)
        and all(isinstance(x, int) and not isinstance(x, bool) for row in mat for x in row)
        and len(mat) == size
        and all(len(row) == size for row in mat)
    ):
        raise ValueError(f"colimit maps must be {size}x{size} integer matrices")
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            if i >= free and j >= free:
                di, dj = orders[i - free], orders[j - free]
                if dj * x % di:
                    raise ValueError(
                        f"map is ill-defined on torsion: order {dj} generator "
                        f"maps with coefficient {x} into Z/{di}"
                    )
            elif x and j >= free:
                raise ValueError(
                    "map does not respect torsion: torsion generator "
                    f"{j - free} hits free generator {i}"
                )
            elif x and i != j:
                rule = "free block must be diagonal"
                if i >= free:
                    rule = "free generators may not feed torsion"
                raise ValueError(f"unsupported map: {rule} (nonzero entry at ({i}, {j}))")
    return mat


def _reduce_mod_orders(M: Matrix, orders: tuple[int, ...]) -> Matrix:
    return [[M[i][j] % orders[i] for j in range(len(orders))] for i in range(len(orders))]


def _subgroup_invariant_factors(gens: Matrix, orders: tuple[int, ...]) -> tuple[int, ...]:
    """Isomorphism type of the subgroup of +Z/orders generated by the columns.

    With L = lcm(orders), x -> ((L/d_i) * x_i) embeds +Z/d_i into (Z/L)^t:
    (L/d_i) * x_i = 0 mod L exactly when d_i divides x_i.  So the subgroup is
    the column span of M = diag(L/d_i) gens mod L.  Write M = U S V in Smith
    form; U and V are unimodular, so they stay invertible mod L, and the span
    is +s_i Z/L = +Z/(L/gcd(s_i, L)).  The s_i divide in sequence, so these
    orders, read in reverse, do too.
    """
    L = math.lcm(*orders)
    diagonal = _smith_diagonal([[L // d * x for x in row] for d, row in zip(orders, gens)])
    return tuple(f for f in (L // math.gcd(s, L) for s in reversed(diagonal)) if f >= 2)


def _stable_image_factors(tb: Matrix, orders: tuple[int, ...]) -> tuple[int, ...]:
    """Invariant factors of the eventual image of a torsion self-map T.

    The images of T^k form a decreasing chain of finite subgroups, and each
    strict step at least halves the order, so the image of T^k is stable once
    k >= log2(order).  T is squared until its exponent 2^s passes that bound
    (2^s > bit_length(order)), and the subgroup of that power is computed
    once.  The colimit of the torsion part is the stable image (the map
    restricts to an automorphism of it).  T comes in reduced mod the orders.
    """
    power = tb
    for _ in range(math.prod(orders).bit_length().bit_length()):
        power = _reduce_mod_orders(mat_mul(power, power), orders)
    return _subgroup_invariant_factors(power, orders)


def fgab_colimit(
    initial: FgAbPresentation,
    cycle,
) -> FgAbPresentation:
    """Colimit of a constant presentation along repeated cycle maps.

    Generators are ordered free-first; each map is a square integer matrix
    whose column j gives the image of generator j.  The free part of the
    colimit localizes each surviving generator at the primes of its cycle
    scaling product; the torsion part is the stabilized image of the cycle's
    torsion block.  Maps outside the supported shape raise ValueError.
    """
    cycle = tuple(cycle)
    if not cycle:
        raise ValueError("need a nonempty cycle of maps")
    if any(loc.exponents for loc in initial.localizations):
        raise ValueError("initial presentation must have trivial localizations")
    free, orders = initial.free_rank, initial.torsion
    cyc = [_check_colimit_map(M, free, orders) for M in cycle]

    scalings = (math.prod(M[i][i] for M in cyc) for i in range(free))
    locs = tuple(
        SupernaturalNumber(tuple((p, math.inf) for p in _factorize(abs(scaling))))
        for scaling in scalings
        if scaling
    )
    blocks = ([row[free:] for row in M[free:]] for M in cyc)
    composite = _reduce_mod_orders(next(blocks), orders)
    for block in blocks:
        # maps apply left to right, so the composite is block @ previous
        composite = _reduce_mod_orders(mat_mul(block, composite), orders)
    return FgAbPresentation(len(locs), _stable_image_factors(composite, orders), locs)
