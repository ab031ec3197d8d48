"""Relations between two runs of the tool, checked without an oracle.

Cutoff: a decided verdict keeps its decision at every larger cutoff, and an
answer that a cutoff allows stays allowed, and consistent, at a larger one.
"""

import random

import pytest

from afrokhlin import (
    UndecidedError,
    UniqueTraceError,
    extreme_trace_vector,
    tracial_rokhlin_verdict,
)
from specgen import random_spec


@pytest.mark.parametrize("cutoff", [1, 4, 16, 64, 256])
def test_tracial_decision_kept_at_larger_cutoffs(cutoff):
    rng = random.Random(f"cutoff/{cutoff}")
    decided = 0
    for seed in range(300):
        spec = random_spec(rng, f"s{seed}")
        first = tracial_rokhlin_verdict(spec, cutoff)
        if first.is_unknown:
            continue
        decided += 1
        for larger in (2 * cutoff, 4 * cutoff):
            later = tracial_rokhlin_verdict(spec, larger)
            assert later.decision == first.decision, (seed, larger)
            if first.is_no:
                # both witness enclosures hold the tail product
                w, v = first.witness, later.witness
                assert max(w["lower"], v["lower"]) <= min(w["upper"], v["upper"]), (seed, larger)
    assert decided > 200


@pytest.mark.parametrize("cutoff", [1, 4, 16, 64, 256])
def test_extreme_weights_kept_at_twice_the_cutoff(cutoff):
    # a trace vector given at cutoff c is given at 2c, and each weight's
    # enclosures at c and 2c share a point, the true weight
    rng = random.Random(f"traces-cutoff/{cutoff}")
    given = 0
    for seed in range(300):
        spec = random_spec(rng, f"s{seed}")
        n = len(spec.prefix) + rng.randint(0, 3)
        extreme = rng.randint(0, 1)
        try:
            tv = extreme_trace_vector(spec, extreme, n, cutoff)
        except (UniqueTraceError, UndecidedError):
            continue
        given += 1
        deeper = extreme_trace_vector(spec, extreme, n, 2 * cutoff)
        for w, v in ((tv.r, deeper.r), (tv.s, deeper.s)):
            assert max(w.lo, v.lo) <= min(w.hi, v.hi), (seed, n)
    assert given > 50
