"""Ordered K0 of the crossed product, and K0 of the torsion family in closed
form.

K0 of the crossed product is the colimit of Z^2 under the symmetric stage
matrices [[p_n, q_n], [q_n, p_n]].  In the coordinates u = a + b, v = a - b
each stage map is diagonal: u scales by the matrix size k_n, v by the rank
difference p_n - q_n.  `push_forward` works in this diagonal form, scaling u
and v by the exact products of `products.range_product`, and
`is_positive` scans the stage products rounded outward to the precision that
the threshold needs (`_cone_scan`).  Equality and positivity of
colimit classes are decided lazily from these scalings together with
gap-product thresholds: a class with u > 0 is positive exactly when
|v| * gap_product(stage, N) <= u at some finite stage N, which the ends of
the certified tail enclosure resolve.

The torsion family with parameter m and r-sequence r_1, ..., r_k has stage
K0 groups Z + Z/2^m, and the stage maps diag(2r_i + 1, 1) repeat in that
cycle.  The maps are diagonal, so the colimit is the sum of the colimits of
the two summands.  The torsion block is the identity on Z/2^m, so each of its
images is all of Z/2^m, and so is the stable image, which is the torsion of
the colimit.  Once per cycle the free generator is multiplied by
N = (2r_1 + 1) ... (2r_k + 1), so its colimit is Z[1/N]: Z localized at every
prime dividing N with infinite exponent, that is, at every prime dividing some
2r_i + 1.  `torsion_family_k0` factors each 2r_i + 1 on its own and never N.
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
from .intervals import round_down, round_down_above, round_up
from .products import (
    _GUARD_BITS,
    DEFAULT_CUTOFF,
    _gap_walk,
    first_zero_gap_after,
    gap_product_tail,
    range_product,
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
    diff, size = range_product(spec, el.stage, to_stage)
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
    if tail.lo == 0 < tail.hi:
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
    # A zero tail has hi = 0 < ratio, and a positive one stays positive at every
    # larger cutoff; refine until the enclosure separates from the threshold.
    doublings = 0
    while tail.hi >= ratio:
        if tail.lo > ratio:
            return Verdict(
                NO,
                {
                    "kind": "tail_threshold_exceeded",
                    "threshold": ratio,
                    "tail_lower": round_down_above(tail.lo, ratio),
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
        if tail.hi == 0:
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
            "interval": [round_down(tail.lo), round_up(tail.hi)],
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
    straddles the threshold multiplies out the exact `range_product`.
    """
    prec = u.bit_length() + absv.bit_length() + _GUARD_BITS
    for n, (lo, hi, den) in enumerate(_gap_walk(spec, s, prec), s):
        bound = u * den
        if absv * hi <= bound:
            yield n, True
        elif lo == hi or absv * lo > bound:
            yield n, False
        else:
            diff, size = range_product(spec, s, n)
            yield n, absv * diff <= u * size


def is_totally_ordered(spec: ActionSpec) -> Verdict:
    """Total order on K0 of the crossed product; decided with strict Rokhlin."""
    return replace(
        strict_rokhlin_verdict(spec),
        citations=cite("strict-rokhlin-criterion", "k0-colimit"),
    )


# ----------------------------------------------------------------------------
# Presentations of finitely generated abelian groups, and the torsion family


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


def torsion_family_k0(m: int, rs) -> FgAbPresentation:
    """K0 of the torsion family, Z[1/p_1*...*p_k] (+) Z/2^m, where the p_i are
    the primes dividing some 2r + 1 for r in ``rs`` (see the module docstring).
    """
    primes = {p for r in rs for p in _factorize(2 * r + 1)}
    return FgAbPresentation(
        1, (2**m,), (SupernaturalNumber(tuple((p, math.inf) for p in primes)),)
    )
