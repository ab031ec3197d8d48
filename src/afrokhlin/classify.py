"""Decision procedures for the classification of product-type symmetries.

All three headline properties are conditions on the tail alone ("infinitely
many factors such that ..."), so each verdict is decided exactly from the
tail rule; the prefix only influences witnesses.  Verdicts are three-valued:
yes and no always carry a checkable witness, unknown carries the cutoff that
was exhausted.  Unknown never collapses to no.

A report stores the four verdicts it decides and derives the crossed
product's simplicity, supernatural number and extreme trace count from them;
`extreme_trace_count` alone reads the count from the tail rule, no enclosure.

The tracial no witness is the cutoff enclosure of the tail product rounded
to 12 digits, read from the shallowest enclosure that fixes those bytes
(`_shallow_witness`) and from the cutoff one only when none does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .actions import (
    ActionSpec,
    FiniteActionError,
    SupernaturalNumber,
    supernatural_of_algebra,
)
from .citations import cite
from .intervals import round_down, round_up
from .products import (
    _GUARD_BITS,
    DEFAULT_CUTOFF,
    first_zero_gap_after,
    gap_product_tail,
)

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


class UndecidedError(RuntimeError):
    """A computation required a decided verdict but got unknown."""


@dataclass(frozen=True)
class Verdict:
    decision: str
    witness: dict
    citations: tuple[str, ...]

    def __post_init__(self):
        if self.decision not in (YES, NO, UNKNOWN):
            raise ValueError(f"bad decision {self.decision!r}")

    @property
    def is_yes(self) -> bool:
        return self.decision == YES

    @property
    def is_no(self) -> bool:
        return self.decision == NO

    @property
    def is_unknown(self) -> bool:
        return self.decision == UNKNOWN


def require_infinite(spec: ActionSpec):
    if spec.tail is None:
        raise FiniteActionError(
            f"action {spec.name!r} has only finitely many factors; "
            "classification verdicts are defined for infinite actions only"
        )


def _zero_gap_indices(spec: ActionSpec) -> list[int]:
    """Every factor index with gap zero; needs a tail without recurring ones."""
    out = []
    z = first_zero_gap_after(spec, 0)
    while z is not None:
        out.append(z)
        z = first_zero_gap_after(spec, z)
    return out


def strict_rokhlin_verdict(spec: ActionSpec) -> Verdict:
    """Yes iff infinitely many factors have gap ratio zero."""
    require_infinite(spec)
    anchors = cite("strict-rokhlin-criterion", "rank-exchange")
    n0 = len(spec.prefix)
    recurring = spec.tail.recurring_zero_gap(n0)
    if recurring is not None:
        return Verdict(YES, recurring, anchors)
    sym = _zero_gap_indices(spec)
    return Verdict(
        NO,
        {
            "kind": "finitely_many_symmetric_factors",
            "symmetric_indices": sym,
            "none_beyond": max([n0] + sym),
        },
        anchors,
    )


# round_down and round_up step by at least 10^-12 > 2^-40 of any value in (0, 1]
# (round_down refines its grid below 10^-12 only as far as the value itself), so
# below this remainder bound the brackets of `_shallow_witness`, about 3r wide
# relative to the tail product, are _GUARD_BITS bits narrower than a grid step.
_SHALLOW_REMAINDER = Fraction(1, 1 << (40 + _GUARD_BITS))


def tracial_rokhlin_verdict(spec: ActionSpec, cutoff: int = DEFAULT_CUTOFF) -> Verdict:
    """Yes iff every tail gap product vanishes.

    The condition only depends on the tail rule: finitely many zero gaps never
    make every tail product vanish, so the decision reduces to a recurring
    zero gap or a divergent sum of (1 - gap) along the tail; a recurring zero
    gap makes that sum diverge too.
    """
    require_infinite(spec)
    anchors = cite("tracial-rokhlin-criterion")
    if spec.tail.divergence() is not None:
        m, ends = len(spec.prefix), None
    else:
        m = max(_zero_gap_indices(spec), default=0)
        ends = _shallow_witness(spec, m, cutoff)
    if ends is None:
        result = gap_product_tail(spec, m, cutoff)
        if result.hi == 0:
            witness: dict = {"kind": "vanishing_tail_products"}
            if result.zero_index is not None:
                witness["recurring_zero_gap_index"] = result.zero_index
            else:
                witness["divergence"] = result.divergence
            witness.update(spec.tail.gap_limit())
            return Verdict(YES, witness, anchors)
        if result.lo == 0:
            return Verdict(
                UNKNOWN,
                {
                    "kind": "cutoff_exhausted",
                    "cutoff": cutoff,
                    "m": m,
                    "partial_upper": round_up(result.hi),
                },
                anchors,
            )
        # witness endpoints are rounded outward, so they still bracket the limit
        ends = round_down(result.lo), round_up(result.hi)
    return Verdict(
        NO,
        {"kind": "positive_tail_product", "m": m, "lower": ends[0], "upper": ends[1]},
        anchors,
    )


def _shallow_witness(
    spec: ActionSpec, m: int, cutoff: int
) -> tuple[Fraction, Fraction] | None:
    """(round_down(lower_c), round_up(upper_c)) of the cutoff-c enclosure
    `gap_product_tail(spec, m, c)` of a positive tail, read from a shallower
    one, or None: for an exact tail, when the shallow depth is not below c,
    or when the bytes are not fixed.

    The shallow cutoff d is the least d >= settle depth at which the
    remainder bound r_d of `gap_product_tail(spec, m, d)` is below
    _SHALLOW_REMAINDER.  Its enclosure [l, u] brackets the cutoff-c ends:

        lower_c in [l * (1 - 2 r_d), u],  upper_c in [l, min(u * (1 + 2 r_d), 1)].

    The inner ends hold as lower_c <= L <= u and upper_c >= L >= l for the
    limit L.  For the outer ones, r_c <= r_d, and the partial product P_c
    satisfies P_c * (1 - r_c) <= L <= P_c.  `_gap_walk` keeps P_c within a
    factor 1 -+ delta, delta = 4N / 2**prec <= r_c**2 / 2**62 at the
    precision of `gap_product_tail`, and `_floor_bits` loses less than
    2**(1 - prec) more, so lower_c >= l * (1 - r_c) * (1 - 2 delta) >= l * (1
    - 2 r_d), and upper_c <= P_c * (1 + delta) <= u * (1 + delta) / (1 - r_d)
    <= u * (1 + 2 r_d).  An exact enclosure has delta = 0.
    """
    tail = spec.tail
    settle = tail.settle_depth()
    base = max(settle, m - len(spec.prefix))
    r = tail.remainder_bound(base)
    if not r:
        return None
    # the bound shrinks by the factor B = r / r(base + 1) per depth, so it is below
    # _SHALLOW_REMAINDER from d = floor(log_B(r / _SHALLOW_REMAINDER)) + 1 on; a float
    # logarithm can miss that least d by one, which a comparison each way mends
    B = r / tail.remainder_bound(base + 1)
    d = max(0, math.floor(_log(r / _SHALLOW_REMAINDER) / _log(B)) + 1)
    d += tail.remainder_bound(base + d) >= _SHALLOW_REMAINDER
    d -= d > 0 and tail.remainder_bound(base + d - 1) < _SHALLOW_REMAINDER
    d = max(d, settle)
    if d >= cutoff:
        return None
    enc = gap_product_tail(spec, m, d)
    slack = 2 * tail.remainder_bound(base + d)
    lo, hi = enc.lo, enc.hi
    return _fixed_witness((lo * (1 - slack), hi), (lo, min(hi * (1 + slack), 1)))


def _log(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def _fixed_witness(
    lower: tuple[Fraction, Fraction], upper: tuple[Fraction, Fraction]
) -> tuple[Fraction, Fraction] | None:
    """(round_down(x), round_up(y)) shared by every x in the bracket ``lower``
    and every y in ``upper``, or None when either bracket straddles a grid
    point; round_down and round_up are monotone, so comparing ends suffices."""
    down, up = round_down(lower[0]), round_up(upper[1])
    if down == round_down(lower[1]) and up == round_up(upper[0]):
        return down, up
    return None


def outer_verdict(spec: ActionSpec) -> Verdict:
    """Yes iff infinitely many factors have a nonzero smaller rank.

    When no, only finitely many factors move anything, the symmetry is
    conjugation by a finite tensor of sign unitaries, and the crossed product
    splits into two copies of the ambient algebra.
    """
    require_infinite(spec)
    recurring = spec.tail.recurring_nonzero_rank(len(spec.prefix))
    if recurring is not None:
        return Verdict(YES, recurring, cite("outerness-criterion"))
    last = max((i + 1 for i, p in enumerate(spec.prefix) if p.q > 0), default=0)
    return Verdict(
        NO,
        {
            "kind": "inner_beyond",
            "index": last,
            "crossed_product": "splits into two copies of the ambient algebra",
        },
        cite("outerness-criterion", "inner-splitting"),
    )


def extreme_trace_count(spec: ActionSpec, cutoff: int = DEFAULT_CUTOFF) -> int | str:
    """1 when the sum of (1 - gap) diverges, so every tail gap product
    vanishes; otherwise 2, or unknown when the tail does not settle within
    the cutoff.  The tracial Rokhlin verdict decides the same way."""
    require_infinite(spec)
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    if spec.tail.divergence() is not None:
        return 1
    if spec.tail.settle_depth() > cutoff:
        return UNKNOWN
    return 2


ALWAYS_TRUE_FACTS: dict[str, tuple[str, ...]] = {
    "action_strictly_approx_representable": cite("strictly-approx-representable"),
    "dual_action_strict_rokhlin": cite("dual-strict-rokhlin"),
    "crossed_product_AF": cite("crossed-product-af"),
}


@dataclass(frozen=True)
class ClassificationReport:
    """Full verdict sheet for one infinite product-type symmetry.

    The crossed product is simple iff the action is outer, and has one
    extreme trace iff the action has the tracial Rokhlin property."""

    spec: ActionSpec
    strict_rokhlin: Verdict
    tracial_rokhlin: Verdict
    outer: Verdict
    crossed_product_uhf: Verdict
    cutoff: int

    @property
    def crossed_product_simple(self) -> Verdict:
        return replace(self.outer, citations=cite("outerness-criterion"))

    @property
    def crossed_product_supernatural(self) -> SupernaturalNumber | None:
        return self.crossed_product_uhf.witness.get("supernatural")

    @property
    def extreme_trace_count(self) -> int | str:
        return {YES: 1, NO: 2}.get(self.tracial_rokhlin.decision, UNKNOWN)

    def verdicts(self) -> dict[str, Verdict]:
        """The sheet's verdicts by name, in the order they are reported."""
        return {
            "strict_rokhlin": self.strict_rokhlin,
            "tracial_rokhlin": self.tracial_rokhlin,
            "outer": self.outer,
            "crossed_product_simple": self.crossed_product_simple,
            "crossed_product_uhf": self.crossed_product_uhf,
        }

    @property
    def has_unknown(self) -> bool:
        # the trace count is unknown exactly when the tracial verdict is
        return any(v.is_unknown for v in self.verdicts().values())

    def dual_facts(self) -> dict[str, tuple[str, tuple[str, ...]]]:
        """Derived facts about the dual symmetry, with their anchors."""
        return {
            "dual_action_strictly_approx_representable": (
                self.strict_rokhlin.decision,
                cite("dual-tracial-duality"),
            ),
            "dual_action_tracially_approx_representable": (
                self.tracial_rokhlin.decision,
                cite("dual-tracial-duality"),
            ),
        }


def classification_report(
    spec: ActionSpec, cutoff: int = DEFAULT_CUTOFF
) -> ClassificationReport:
    require_infinite(spec)
    strict = strict_rokhlin_verdict(spec)
    # The crossed product is UHF exactly when the action is strictly Rokhlin;
    # it is then the matrix colimit of sizes t(n), and its supernatural number
    # equals that of the ambient algebra.
    anchors = cite("strict-rokhlin-criterion", "uhf-supernatural")
    if strict.is_yes:
        sn = supernatural_of_algebra(spec)
        uhf = Verdict(YES, {**strict.witness, "supernatural": sn}, anchors)
    else:
        uhf = replace(strict, citations=anchors)
    return ClassificationReport(
        spec=spec,
        strict_rokhlin=strict,
        tracial_rokhlin=tracial_rokhlin_verdict(spec, cutoff),
        outer=outer_verdict(spec),
        crossed_product_uhf=uhf,
        cutoff=cutoff,
    )
