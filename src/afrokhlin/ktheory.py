"""Ordered K0 of the crossed product, and a colimit engine for presentations
of finitely generated abelian groups.

K0 of the crossed product is the colimit of Z^2 under the symmetric stage
matrices [[p_n, q_n], [q_n, p_n]].  In the coordinates u = a + b, v = a - b
each stage map is diagonal: u scales by the matrix size k_n, v by the rank
difference p_n - q_n.  `push_forward` works in this diagonal form, scaling u
and v by the products of the factor walk `ActionSpec.partial_products`, and
`is_positive` scans the stage products rounded outward to the precision that
the threshold needs (`_cone_scan`).  Equality and positivity of
colimit classes are decided lazily from these scalings together with
gap-product thresholds: a class with u > 0 is positive exactly when
|v| * gap_product(stage, N) <= u at some finite stage N, which the certified
tail enclosures resolve.

The presentation engine computes colimits of a fixed finitely generated
abelian presentation under an eventually periodic sequence of self-maps.  It
deliberately supports only block-diagonal maps with a diagonal free block and
a torsion-respecting torsion block; everything else is rejected loudly.  The
torsion of a colimit is the eventual image of the torsion block, read off one
Smith diagonal: with L = lcm(d_i), x -> ((L/d_i) * x_i) embeds +Z/d_i into
(Z/L)^t, because (L/d_i) * x_i = 0 mod L exactly when d_i divides x_i.  A
subgroup spanned by columns g is then the span of diag(L/d_i) g mod L, which
is +Z/(L/gcd(s_i, L)) for the Smith diagonal s_i of that matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .actions import (
    ActionSpec,
    FiniteActionError,
    SupernaturalNumber,
    _factorize,
)
from .citations import cite
from .classify import NO, UNKNOWN, YES, Verdict, strict_rokhlin_verdict
from .intervals import RatInterval, round_down, round_down_above, round_up
from .products import (
    _GUARD_BITS,
    DEFAULT_CUTOFF,
    TailPositive,
    TailZero,
    _gap_walk,
    first_zero_gap_after,
    gap_product_tail,
)


@dataclass(frozen=True)
class K0Element:
    """A class in stage-n K0, i.e. a vector of Z^2 tagged with its stage.

    Two elements represent the same colimit class when their pushforwards to
    some common stage coincide.
    """

    stage: int
    a: int
    b: int

    def __post_init__(self):
        if self.stage < 0:
            raise ValueError("stage must be >= 0")

    @property
    def u(self) -> int:
        return self.a + self.b

    @property
    def v(self) -> int:
        return self.a - self.b

    def __neg__(self) -> "K0Element":
        return K0Element(self.stage, -self.a, -self.b)


def flip(el: K0Element) -> K0Element:
    """The dual symmetry on K0: swap the two coordinates."""
    return K0Element(el.stage, el.b, el.a)


def push_forward(spec: ActionSpec, el: K0Element, to_stage: int) -> K0Element:
    if to_stage < el.stage:
        raise ValueError(f"cannot push stage {el.stage} back to stage {to_stage}")
    diff, size = spec.range_product(el.stage, to_stage)
    u, v = el.u * size, el.v * diff
    return K0Element(to_stage, (u + v) // 2, (u - v) // 2)


def is_zero(spec: ActionSpec, el: K0Element) -> bool:
    # u scales by positive sizes, so it must vanish outright; v survives
    # unless a later factor is rank-symmetric and annihilates it.
    if el.u != 0:
        return False
    if el.v == 0:
        return True
    return first_zero_gap_after(spec, el.stage) is not None


def is_equal(spec: ActionSpec, el1: K0Element, el2: K0Element) -> bool:
    """Colimit equality: pushforwards agree at some common stage."""
    s = max(el1.stage, el2.stage)
    a1 = push_forward(spec, el1, s)
    a2 = push_forward(spec, el2, s)
    return is_zero(spec, K0Element(s, a1.a - a2.a, a1.b - a2.b))


# The work budget of `is_positive`: stages scanned past the element's stage,
# and doublings of the cutoff when refining the tail enclosure.
_SCAN_HARD_CAP = 1 << 16
_MAX_DOUBLINGS = 6


def is_positive(
    spec: ActionSpec, el: K0Element, cutoff: int = DEFAULT_CUTOFF
) -> Verdict:
    """Decide whether a colimit class lies in the positive cone.

    The cone at each stage is { both coordinates >= 0 }, and the zero class
    counts as positive.  With u = a + b and v = a - b, a pushforward to stage
    N is in the cone iff |v| * gap_product(stage, N) <= u, so the decision is
    a threshold test against the certified tail product.

    The budget is 7 tail enclosures, at cutoff * 2**k for k = 0 .. 6, each
    tested against the threshold u / |v|, and 2**16 stages scanned past the
    element's stage (or the first scan, over the cutoff and the prefix, if
    that is longer); a verdict that needs more is unknown.  A scanned stage
    costs one rounded step (`_cone_scan`), not a test on the exact stage
    product, whose bits grow with the square of the stage on an affine tail.
    """
    if spec.tail is None:
        raise FiniteActionError("positivity needs an infinite action")
    anchors = cite("k0-cone")
    u, v, s = el.u, el.v, el.stage
    if u == 0 and v == 0:
        return Verdict(YES, {"kind": "zero_class"}, anchors)
    if u == 0:
        z = first_zero_gap_after(spec, s)
        if z is not None:
            return Verdict(
                YES, {"kind": "zero_class", "annihilated_at": z}, anchors
            )
        return Verdict(
            NO,
            {"kind": "mixed_signs_persist", "u": 0, "v": v},
            cite("k0-cone", "eta-class"),
        )
    if u < 0:
        return Verdict(NO, {"kind": "negative_total_rank", "u": u}, anchors)

    # An exact tail product is reached by stage max(prefix length + 1, s),
    # which this first scan covers, so no exact enclosure below can equal the
    # threshold.  Later scans resume where this one stopped.
    absv = abs(v)
    scan = _cone_scan(spec, s, u, absv)
    n, inside = next(scan)
    scan_to = max(s + max(cutoff, 8), len(spec.prefix) + 1)
    while not inside and n < scan_to:
        n, inside = next(scan)
    if inside:
        return Verdict(YES, {"kind": "in_cone_at_stage", "stage": n}, anchors)

    ratio = Fraction(u, absv)
    tail = gap_product_tail(spec, s, cutoff)
    if isinstance(tail, RatInterval):
        return Verdict(
            UNKNOWN,
            {
                "kind": "cutoff_exhausted",
                "cutoff": cutoff,
                "interval": [tail.lo, round_up(tail.hi)],
                "threshold": ratio,
            },
            anchors,
        )
    # A tail that is positive at this cutoff stays positive at every larger
    # one; refine until the enclosure separates from the threshold.
    doublings = 0
    while isinstance(tail, TailPositive) and tail.upper >= ratio:
        if tail.lower > ratio:
            return Verdict(
                NO,
                {
                    "kind": "tail_threshold_exceeded",
                    "threshold": ratio,
                    "tail_lower": round_down_above(tail.lower, ratio),
                },
                anchors,
            )
        if doublings == _MAX_DOUBLINGS:
            break
        doublings += 1
        tail = gap_product_tail(spec, s, cutoff << doublings)
    else:
        # The tail product vanishes or lies below the threshold, so some
        # finite stage meets the threshold.
        while not inside and n < s + _SCAN_HARD_CAP:
            n, inside = next(scan)
        if inside:
            return Verdict(YES, {"kind": "in_cone_at_stage", "stage": n}, anchors)
        if isinstance(tail, TailZero):
            return Verdict(
                UNKNOWN,
                {"kind": "scan_exhausted", "scanned_to": n, "cutoff": cutoff},
                anchors,
            )
    return Verdict(
        UNKNOWN,
        {
            "kind": "threshold_boundary",
            "threshold": ratio,
            "interval": [round_down(tail.lower), round_up(tail.upper)],
            "cutoff": cutoff,
        },
        anchors,
    )


def _cone_scan(spec: ActionSpec, s: int, u: int, absv: int):
    """Yield (n, |v| * gap_product(spec, s, n) <= u) for n = s, s + 1, ...

    The stage products come from `_gap_walk` at prec = bits(u) + bits(|v|) +
    _GUARD_BITS: exact while their denominator fits, then rounded outward to
    lo <= gap_product * den <= hi.  A rounded stage is inside when |v| * hi <=
    u * den and outside when |v| * lo > u * den; only a stage whose enclosure
    straddles the threshold multiplies out the exact `spec.range_product`.
    """
    prec = u.bit_length() + absv.bit_length() + _GUARD_BITS
    for n, (lo, hi, den) in enumerate(_gap_walk(spec, s, prec), s):
        bound = u * den
        if absv * hi <= bound:
            yield n, True
        elif lo == hi or absv * lo > bound:
            yield n, False
        else:
            diff, size = spec.range_product(s, n)
            yield n, absv * diff <= u * size


def is_totally_ordered(spec: ActionSpec) -> Verdict:
    """Total order on K0 of the crossed product; decided with strict Rokhlin."""
    return replace(
        strict_rokhlin_verdict(spec),
        citations=cite("strict-rokhlin-criterion", "k0-colimit"),
    )


# ----------------------------------------------------------------------------
# Smith normal form

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


# ----------------------------------------------------------------------------
# Presentations of finitely generated abelian groups and their colimits


@dataclass(frozen=True)
class FgAbPresentation:
    """Direct sum of localized free generators and cyclic torsion factors.

    ``torsion`` lists invariant factors (each >= 2, dividing in sequence);
    ``localizations`` gives, per free generator, the supernatural number the
    generator is localized at (trivial means a plain copy of Z).
    """

    free_rank: int
    torsion: tuple[int, ...] = ()
    localizations: tuple[SupernaturalNumber, ...] = field(default=())

    def __post_init__(self):
        if not isinstance(self.free_rank, int) or isinstance(self.free_rank, bool):
            raise ValueError("free rank must be an integer")
        if not all(isinstance(v, (tuple, list)) for v in (self.torsion, self.localizations)):
            raise ValueError("invariant factors and localizations must be tuples or lists")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        if not all(isinstance(d, int) and not isinstance(d, bool) for d in self.torsion):
            raise ValueError("invariant factors must be integers")
        if self.free_rank < 0:
            raise ValueError("free rank must be >= 0")
        if any(d < 2 for d in self.torsion):
            raise ValueError("invariant factors must be >= 2")
        for d, e in zip(self.torsion, self.torsion[1:]):
            if e % d:
                raise ValueError(f"invariant factors must divide in sequence: {d}, {e}")
        locs = tuple(self.localizations)
        if not locs:
            locs = tuple(SupernaturalNumber.one() for _ in range(self.free_rank))
        if len(locs) != self.free_rank:
            raise ValueError("need one localization per free generator")
        if not all(isinstance(loc, SupernaturalNumber) for loc in locs):
            raise ValueError("localizations must be supernatural numbers")
        object.__setattr__(self, "localizations", locs)

    def __str__(self) -> str:
        parts = []
        for loc in self.localizations:
            if not loc.exponents:
                parts.append("Z")
            elif all(e == math.inf for _, e in loc.exponents):
                primes = "*".join(str(p) for p, _ in loc.exponents)
                parts.append(f"Z[1/{primes}]")
            else:
                parts.append(f"Z[1/{loc}]")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"


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
