"""Built-in named actions used as fixtures throughout the test suite and CLI.

All four live on infinite tensor products of 2-power or mixed matrix sizes:

* ``car1``  -- every factor is (1, 1) in M_2; the most regular case.
* ``car2``  -- factor n is (2**(n-1) + 1, 2**(n-1) - 1) in M_(2**n).
* ``car3``  -- factor n is (2**n - 1, 1) in M_(2**n).
* ``notcar`` -- one M_2 factor with trivial symmetry, then (2, 1) in M_3
  forever; the ambient algebra has supernatural number 2 * 3^inf, so it is
  not isomorphic to its tensor product with the 2^inf algebra.

The affine tails are written at tail-relative index j = n - 1 (the first
factor is absorbed into the prefix), which keeps every coefficient integral:
car2 has p(n) = 2**(n-1) + 1 = 2**j + 1 and car3 has p(n) = 2**n - 1 =
2*2**j - 1.
"""

from __future__ import annotations

from .actions import ActionSpec, AffinePowerTail, PeriodicTail, RankPair


_FIXTURES = {
    "car1": ActionSpec("car1", (), PeriodicTail((RankPair(1, 1),))),
    "car2": ActionSpec(
        "car2",
        (RankPair(2, 0),),
        AffinePowerTail(B=2, A=2, alpha=1, beta=1, gamma=1, delta=-1),
    ),
    "car3": ActionSpec(
        "car3",
        (RankPair(1, 1),),
        AffinePowerTail(B=2, A=2, alpha=2, beta=-1, gamma=0, delta=1),
    ),
    "notcar": ActionSpec("notcar", (RankPair(2, 0),), PeriodicTail((RankPair(2, 1),))),
}

FIXTURE_NAMES = tuple(sorted(_FIXTURES))


def fixture(name: str) -> ActionSpec:
    """The built-in spec of that name; specs are frozen, so it is shared."""
    try:
        return _FIXTURES[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
