"""Data model for product-type order-two symmetries of matrix tensor products.

A single tensor factor is a pair of eigenspace ranks ``(p, q)``: it stands for
conjugation by a diagonal sign unitary with ``p`` entries ``+1`` and ``q``
entries ``-1`` acting on the ``(p + q) x (p + q)`` matrix algebra.  An action
is a finite prefix of such factors together with a tail rule that determines
every factor beyond the prefix in closed form.  Only two tail families are
accepted (periodic, and affine in ``B**n``); they keep every downstream
decision procedure exact, and arbitrary user generators are rejected when a
document is parsed.

Every fact about a tail family lives on its tail class, behind one protocol
that both families provide: ``pair_at(j)`` (factor at tail position j),
``split_stream(j)`` (the factors at tail positions j, j + 1, ... in split
form), ``first_zero_gap(j)`` (first zero gap at or after j),
``recurring_zero_gap`` and ``recurring_nonzero_rank`` (witnesses for a
recurring zero gap and a recurring nonzero smaller rank, or None),
``divergence()`` (why the sum of 1 - gap diverges, or None), ``gap_limit()``
(the eventual gap bound), ``recurring_primes()``, ``settle_depth()`` with
``remainder_bound(depth)`` (the geometric certificate of a positive tail
product), and ``kind``, ``to_json`` and ``from_json`` (the document form).

Factor indices are 1-based throughout.  Exchanging ``p`` and ``q`` in any
factor does not change the symmetry it describes, so factors are normalized
to ``p >= q`` on ingestion and all downstream code may rely on that.

Every product over a run of factors reads ``ActionSpec.split_stream(m)``,
the factors m+1, m+2, ... as integers (x, y, A, P) with p - q = x*P + y and
p + q = A*P: P = 1 and y = 0 for prefix and periodic factors, and for an
affine tail a running power P = B**j with x = s*c, y = s*2*beta, s the sign
of c*P + 2*beta.  It builds no ``RankPair``, and ``factor_stream`` is its
view ``(p - q, p + q)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice
from typing import ClassVar


class InvalidActionSpec(ValueError):
    """An action description violates a structural invariant."""


class FactorRangeError(IndexError):
    """A factor index falls outside a finite action."""


class FiniteActionError(ValueError):
    """The requested operation needs infinitely many factors."""


@dataclass(frozen=True)
class RankPair:
    """Eigenspace ranks of one tensor factor; acts on matrices of size p + q."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise InvalidActionSpec(f"negative rank in factor ({self.p}, {self.q})")
        if self.p + self.q == 0:
            raise InvalidActionSpec("factor must act on a matrix algebra of positive size")

    @property
    def size(self) -> int:
        return self.p + self.q

    @property
    def symmetric(self) -> bool:
        return self.p == self.q

    @property
    def gap(self) -> Fraction:
        """Normalized eigenrank gap |p - q| / (p + q), in [0, 1]."""
        return Fraction(abs(self.p - self.q), self.p + self.q)

    def normalized(self) -> "RankPair":
        return RankPair(max(self.p, self.q), min(self.p, self.q))


@dataclass(frozen=True)
class PeriodicTail:
    """Tail that cycles through a fixed list of factors forever."""

    pairs: tuple[RankPair, ...]
    kind: ClassVar[str] = "periodic"

    def __post_init__(self):
        if not self.pairs:
            raise InvalidActionSpec("periodic tail needs at least one factor")
        object.__setattr__(self, "pairs", tuple(p.normalized() for p in self.pairs))

    @property
    def period(self) -> int:
        return len(self.pairs)

    def pair_at(self, j: int) -> RankPair:
        """Factor at 1-based tail position j."""
        return self.pairs[(j - 1) % len(self.pairs)]

    def split_stream(self, j: int):
        """Split form (p - q, 0, p + q, 1) of the factors at positions j, j + 1, ..."""
        ring = [(p.p - p.q, 0, p.size, 1) for p in self.pairs]
        k = (j - 1) % len(ring)
        return cycle(ring[k:] + ring[:k])

    def first_zero_gap(self, j: int) -> int | None:
        if not any(p.symmetric for p in self.pairs):
            return None
        return next(i for i in range(j, j + self.period) if self.pair_at(i).symmetric)

    def _recurring(self, n0: int, kind: str, holds) -> dict | None:
        for i, pair in enumerate(self.pairs):
            if holds(pair):
                return {
                    "kind": kind,
                    "period_position": i + 1,
                    "first_index": n0 + i + 1,
                    "pair": [pair.p, pair.q],
                }
        return None

    def recurring_zero_gap(self, n0: int) -> dict | None:
        return self._recurring(n0, "recurring_symmetric_factor", lambda p: p.symmetric)

    def recurring_nonzero_rank(self, n0: int) -> dict | None:
        return self._recurring(n0, "recurring_nonzero_smaller_rank", lambda p: p.q > 0)

    def divergence(self) -> str | None:
        small = [p.gap for p in self.pairs if p.gap < 1]
        if not small:
            return None
        worst = max(small)
        return (
            f"a factor with gap ratio {worst} recurs every {self.period} "
            f"factors, so the sum of (1 - gap) dominates the divergent "
            f"constant series with term {1 - worst}"
        )

    def gap_limit(self) -> dict[str, Fraction]:
        worst = max(p.gap for p in self.pairs)
        return {"tail_gap_max": worst} if worst < 1 else {}

    def recurring_primes(self) -> set[int]:
        return {prime for p in self.pairs for prime in _factorize(p.size)}

    def settle_depth(self) -> int:
        # without divergence every gap ratio is 1, so nothing needs to settle
        return 0

    def remainder_bound(self, depth: int) -> Fraction:
        return Fraction(0)

    def to_json(self) -> dict:
        return {"kind": self.kind, "pairs": [[p.p, p.q] for p in self.pairs]}

    @classmethod
    def from_json(cls, obj: dict) -> "PeriodicTail":
        pairs_obj = obj.get("pairs")
        if not isinstance(pairs_obj, list) or not pairs_obj:
            raise InvalidActionSpec("periodic tail needs a nonempty 'pairs' list")
        return cls(
            tuple(_pair_from_json(e, f"tail.pairs[{i}]") for i, e in enumerate(pairs_obj))
        )


@dataclass(frozen=True)
class AffinePowerTail:
    """Tail with closed form k(j) = A*B**j, p(j) = alpha*B**j + beta,
    q(j) = gamma*B**j + delta at 1-based tail position j (absolute factor
    index = prefix length + j).

    The rank difference c*B**j + 2*beta, c = alpha - gamma, makes the gap
    ratios converge to |c|/A.  When |c| = A the smaller rank is a constant e
    and 1 - gap = 2*e / (A*B**j) once A*B**j >= 2*e.
    """

    B: int
    A: int
    alpha: int
    beta: int
    gamma: int
    delta: int
    kind: ClassVar[str] = "affine_power"
    _FIELDS: ClassVar[tuple[str, ...]] = ("B", "A", "alpha", "beta", "gamma", "delta")

    def __post_init__(self):
        if self.B < 2:
            raise InvalidActionSpec("affine tail needs base B >= 2")
        if self.A < 1:
            raise InvalidActionSpec("affine tail needs size coefficient A >= 1")
        if self.alpha + self.gamma != self.A:
            raise InvalidActionSpec("affine tail coefficients must satisfy alpha + gamma = A")
        if self.beta + self.delta != 0:
            raise InvalidActionSpec("affine tail offsets must satisfy beta + delta = 0")
        if self.alpha < 0 or self.gamma < 0:
            raise InvalidActionSpec("affine tail rank coefficients must be nonnegative")
        p1, q1 = self.raw_pair(1)
        if p1 < 0 or q1 < 0:
            raise InvalidActionSpec("affine tail produces a negative rank at its first factor")

    def raw_pair(self, j: int) -> tuple[int, int]:
        power = self.B**j
        return (self.alpha * power + self.beta, self.gamma * power + self.delta)

    def pair_at(self, j: int) -> RankPair:
        p, q = self.raw_pair(j)
        return RankPair(p, q).normalized()

    def split_stream(self, j: int):
        """Split form (s*c, s*2*beta, A, P) at tail positions j, j + 1, ...,
        with P = B**j and s = +-1 the sign of c*P + 2*beta."""
        c, twice_beta, A, B = self.alpha - self.gamma, 2 * self.beta, self.A, self.B
        power = B**j
        while True:
            flip = c * power < -twice_beta
            yield (-c, -twice_beta, A, power) if flip else (c, twice_beta, A, power)
            power *= B

    def first_zero_gap(self, j: int) -> int | None:
        c = self.alpha - self.gamma
        if c == 0:
            return j if self.beta == 0 else None
        # c*B**i + 2*beta vanishes for at most one i because B**i is injective
        x, rest = divmod(-2 * self.beta, c)
        if rest or x < self.B:
            return None
        i = 0
        while x % self.B == 0:
            x //= self.B
            i += 1
        return i if x == 1 and i >= j else None

    def recurring_zero_gap(self, n0: int) -> dict | None:
        if self.alpha == self.gamma and self.beta == 0:
            return {"kind": "identically_symmetric_tail", "first_index": n0 + 1}
        return None

    def eventual_smaller_rank(self) -> int | None:
        """The constant (>= 0 by validation) the smaller rank settles to, or
        None when both ranks grow with B**j."""
        if self.alpha > 0 and self.gamma > 0:
            return None
        return self.delta if self.gamma == 0 else self.beta

    def recurring_nonzero_rank(self, n0: int) -> dict | None:
        e = self.eventual_smaller_rank()
        if e == 0:
            # no tail factor has a nonzero smaller rank at all
            return None
        return {
            "kind": "recurring_nonzero_smaller_rank",
            "eventual_smaller_rank": "unbounded" if e is None else e,
        }

    def _limit(self) -> Fraction:
        return Fraction(abs(self.alpha - self.gamma), self.A)

    def divergence(self) -> str | None:
        limit = self._limit()
        if limit < 1:
            return (
                f"gap ratios converge to {limit} < 1, so the sum of (1 - gap) "
                f"dominates the divergent constant series with term {1 - limit}"
            )
        return None

    def gap_limit(self) -> dict[str, Fraction]:
        return {"tail_gap_limit": self._limit()}

    def recurring_primes(self) -> set[int]:
        return set(_factorize(self.A)) | set(_factorize(self.B))

    def settle_depth(self) -> int:
        """First tail position j >= 1 with A*B**j >= 2*e (needs |c| = A)."""
        e = self.eventual_smaller_rank()
        j = 1
        while self.A * self.B**j < 2 * e:
            j += 1
        return j

    def remainder_bound(self, depth: int) -> Fraction:
        """Bound r with prod over j > depth of gap(j) >= 1 - r, from the
        geometric series of 1 - gap (needs depth >= settle_depth())."""
        e = self.eventual_smaller_rank()
        return Fraction(2 * e, self.A * (self.B - 1) * self.B**depth)

    def to_json(self) -> dict:
        return {"kind": self.kind, **{key: getattr(self, key) for key in self._FIELDS}}

    @classmethod
    def from_json(cls, obj: dict) -> "AffinePowerTail":
        fields = {}
        for key in cls._FIELDS:
            val = obj.get(key)
            if not isinstance(val, int) or isinstance(val, bool):
                raise InvalidActionSpec(f"affine tail needs integer field {key!r}")
            fields[key] = val
        return cls(**fields)


Tail = PeriodicTail | AffinePowerTail


@dataclass(frozen=True)
class ActionSpec:
    """A product-type order-two symmetry: named prefix factors plus a tail rule.

    ``tail is None`` means the action lives on a finite tensor product and has
    only the prefix factors; such specs are rejected by every classification
    routine but still support finite-range queries.
    """

    name: str
    prefix: tuple[RankPair, ...]
    tail: Tail | None

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(p.normalized() for p in self.prefix))
        if self.tail is None and not self.prefix:
            raise InvalidActionSpec("finite action needs at least one factor")

    def factor(self, n: int) -> RankPair:
        """Normalized factor at 1-based index n."""
        if n < 1:
            raise FactorRangeError(f"factor index must be >= 1, got {n}")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        if self.tail is None:
            raise FactorRangeError(
                f"factor {n} requested but finite action {self.name!r} "
                f"has only {len(self.prefix)} factors"
            )
        return self.tail.pair_at(n - len(self.prefix))

    def split_stream(self, m: int):
        """Yield the split form (x, y, A, P) of the normalized factors m+1,
        m+2, ...: p - q = x*P + y and p + q = A*P.

        A finite action raises FactorRangeError, with the message of
        ``factor``, when the stream is asked for the factor past its end."""
        if m < 0:
            raise FactorRangeError(f"factor index must be >= 1, got {m + 1}")
        for f in self.prefix[m:]:
            yield f.p - f.q, 0, f.size, 1
        n0 = len(self.prefix)
        if self.tail is None:
            raise FactorRangeError(
                f"factor {max(m, n0) + 1} requested but finite action {self.name!r} "
                f"has only {n0} factors"
            )
        yield from self.tail.split_stream(max(m - n0, 0) + 1)

    def factor_stream(self, m: int):
        """Yield (p - q, p + q) of the normalized factors m+1, m+2, ..."""
        return ((x * P + y, A * P) for x, y, A, P in self.split_stream(m))

    def partial_products(self, m: int):
        """Yield (n, diff, size) for n = m, m + 1, ...: the unreduced products
        of the rank differences p - q and of the matrix sizes p + q of factors
        m+1 .. n.  Factors are read off ``factor_stream(m)`` as the walk
        advances."""
        n, diff, size = m, 1, 1
        yield n, diff, size
        for d, s in self.factor_stream(m):
            n += 1
            diff *= d
            size *= s
            yield n, diff, size

    def range_product(self, m: int, n: int) -> tuple[int, int]:
        """(diff, size) of ``partial_products(m)`` at n; empty ranges give (1, 1)."""
        if m < 0:
            raise ValueError(f"range start must be >= 0, got {m}")
        if n < m:
            raise ValueError(f"range end {n} precedes start {m}")
        _, diff, size = next(islice(self.partial_products(m), n - m, None))
        return diff, size


# ----------------------------------------------------------------------------
# Supernatural numbers


# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic primality: Miller-Rabin below _MR_EXACT_BELOW, trial
    division at and above it."""
    if n < 2:
        return False
    if n >= _MR_EXACT_BELOW:
        return all(n % d for d in range(2, math.isqrt(n) + 1))
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


# Factors below this are found by trial division before Pollard-Brent rho.
_TRIAL_DIVISION_BELOW = 1000
_RHO_BATCH = 128


def _pollard_brent(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho with Brent's
    cycle detection and batched gcds (Brent, "An improved Monte Carlo
    factorization algorithm", BIT 1980).  The polynomials x**2 + c are tried
    for c = 1, 2, ... in turn, so the result is reproducible."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch overshot the collision: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization with the primes in increasing order.

    Trial division stops as soon as the cofactor is prime.  It takes out the
    factors below _TRIAL_DIVISION_BELOW, and goes on past them only while the
    cofactor is too large for _is_prime to be exact.  Pollard-Brent rho
    splits what is left until every part is prime.
    """
    if n < 1:
        raise ValueError("can only factor positive integers")
    primes: list[int] = []
    d = 2
    prime = _is_prime(n)
    while not prime and d * d <= n and (d < _TRIAL_DIVISION_BELOW or n >= _MR_EXACT_BELOW):
        if n % d == 0:
            while n % d == 0:
                primes.append(d)
                n //= d
            prime = _is_prime(n)
        d += 1 if d == 2 else 2
    if prime:
        primes.append(n)
    elif n > 1:
        # every factor of what is left is at least d
        pending = [n]
        while pending:
            m = pending.pop()
            if d * d > m or _is_prime(m):
                primes.append(m)
            else:
                f = _pollard_brent(m)
                pending += (f, m // f)
    out: dict[int, int] = {}
    for p in sorted(primes):
        out[p] = out.get(p, 0) + 1
    return out


@dataclass(frozen=True)
class SupernaturalNumber:
    """Formal product of primes with exponents in N ∪ {inf}.

    Complete isomorphism invariant of the infinite tensor products handled
    here.  Multiplication adds exponents, with infinity absorbing.
    """

    exponents: tuple[tuple[int, int | float], ...]

    def __post_init__(self):
        seen = {}
        for prime, exp in self.exponents:
            if not _is_prime(prime):
                raise ValueError(f"{prime} is not prime")
            if exp != math.inf and (not isinstance(exp, int) or exp < 1):
                raise ValueError(f"exponent of {prime} must be a positive integer or inf")
            if prime in seen:
                raise ValueError(f"duplicate prime {prime}")
            seen[prime] = exp
        object.__setattr__(self, "exponents", tuple(sorted(seen.items())))

    @staticmethod
    def one() -> "SupernaturalNumber":
        return SupernaturalNumber(())

    @staticmethod
    def of_int(n: int) -> "SupernaturalNumber":
        return SupernaturalNumber(tuple(_factorize(n).items()))

    @staticmethod
    def from_dict(d: dict[int, int | float]) -> "SupernaturalNumber":
        return SupernaturalNumber(tuple(d.items()))

    def as_dict(self) -> dict[int, int | float]:
        return dict(self.exponents)

    def exponent(self, prime: int) -> int | float:
        return dict(self.exponents).get(prime, 0)

    def __mul__(self, other: "SupernaturalNumber") -> "SupernaturalNumber":
        acc = dict(self.exponents)
        for prime, exp in other.exponents:
            cur = acc.get(prime, 0)
            acc[prime] = math.inf if math.inf in (cur, exp) else cur + exp
        return SupernaturalNumber(tuple(acc.items()))

    def to_json(self) -> dict[str, int | str]:
        return {str(p): ("inf" if e == math.inf else e) for p, e in self.exponents}

    def __str__(self) -> str:
        if not self.exponents:
            return "1"
        return "*".join(
            f"{p}^inf" if e == math.inf else (f"{p}^{e}" if e > 1 else str(p))
            for p, e in self.exponents
        )


def supernatural_of_algebra(spec: ActionSpec) -> SupernaturalNumber:
    """Supernatural number of the infinite tensor product the spec acts on.

    The exponent of a prime is the sum of its multiplicities in the factor
    sizes k(n); the sum is infinite exactly for primes dividing a recurring
    tail size (any periodic entry, or A*B for an affine tail).
    """
    if spec.tail is None:
        raise FiniteActionError("supernatural number is only defined for infinite actions")
    acc: dict[int, int | float] = {}
    for pair in spec.prefix:
        for prime, exp in _factorize(pair.size).items():
            acc[prime] = acc.get(prime, 0) + exp
    for prime in spec.tail.recurring_primes():
        acc[prime] = math.inf
    return SupernaturalNumber(tuple((p, e) for p, e in acc.items()))


# ----------------------------------------------------------------------------
# JSON documents


def spec_to_json(spec: ActionSpec) -> dict:
    return {
        "name": spec.name,
        "prefix": [[p.p, p.q] for p in spec.prefix],
        "tail": {"kind": "none"} if spec.tail is None else spec.tail.to_json(),
    }


def _pair_from_json(obj, where: str) -> RankPair:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(x, int) and not isinstance(x, bool) for x in obj)
    ):
        raise InvalidActionSpec(f"{where}: factor must be a pair of integers, got {obj!r}")
    return RankPair(obj[0], obj[1])


def spec_from_json(obj) -> ActionSpec:
    if not isinstance(obj, dict):
        raise InvalidActionSpec("action document must be a JSON object")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise InvalidActionSpec("action document needs a nonempty string 'name'")
    prefix_obj = obj.get("prefix", [])
    if not isinstance(prefix_obj, list):
        raise InvalidActionSpec("'prefix' must be a list of [p, q] pairs")
    prefix = tuple(_pair_from_json(e, f"prefix[{i}]") for i, e in enumerate(prefix_obj))
    tail_obj = obj.get("tail")
    if not isinstance(tail_obj, dict) or "kind" not in tail_obj:
        raise InvalidActionSpec("'tail' must be an object with a 'kind' field")
    kind = tail_obj["kind"]
    family = next((f for f in (PeriodicTail, AffinePowerTail) if f.kind == kind), None)
    tail: Tail | None
    if kind == "none":
        tail = None
    elif family is not None:
        tail = family.from_json(tail_obj)
    else:
        raise InvalidActionSpec(
            f"unsupported tail kind {kind!r}; only 'periodic', 'affine_power' "
            "and 'none' are accepted"
        )
    return ActionSpec(name=name, prefix=prefix, tail=tail)
