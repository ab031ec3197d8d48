"""Exact classification toolkit for product-type order-two symmetries of
infinite matrix tensor products: Rokhlin-type verdicts, ordered K0 of the
crossed product as a colimit, trace simplex parametrization, and Rokhlin
towers for free finite group actions on finite Cantor-system quotients.
"""

__version__ = "0.1.0"

from .actions import (
    ActionSpec,
    AffinePowerTail,
    FactorRangeError,
    FiniteActionError,
    InvalidActionSpec,
    PeriodicTail,
    RankPair,
    SupernaturalNumber,
    spec_from_json,
    spec_to_json,
    supernatural_of_algebra,
)
from .classify import (
    ClassificationReport,
    UndecidedError,
    Verdict,
    classification_report,
    extreme_trace_count,
    outer_verdict,
    strict_rokhlin_verdict,
    tracial_rokhlin_verdict,
)
from .fixtures import FIXTURE_NAMES, fixture
from .intervals import RatInterval
from .ktheory import (
    FgAbPresentation,
    K0Element,
    flip,
    is_equal,
    is_positive,
    is_totally_ordered,
    is_zero,
    push_forward,
)
from .products import (
    DEFAULT_CUTOFF,
    TailPositive,
    TailZero,
    condense,
    gap_product,
    gap_product_tail,
)
from .traces import (
    TraceVector,
    UniqueTraceError,
    extreme_trace_vector,
    invariant_trace_vector,
)
from .cantor import (
    FiniteGSet,
    InvalidCover,
    InvalidGSet,
    NotFreeError,
    Tower,
    default_cover,
    greedy_tower,
    is_free,
    verify_tower,
)
