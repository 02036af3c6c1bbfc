"""Shared arithmetic and parameter types.

A double Hurwitz number H_g(mu, nu) counts degree-d branched covers of the
sphere by genus-g curves with ramification profile mu over 0, nu over infinity,
and r = 2g - 2 + m + n further simple branch points (m = len(mu), n = len(nu)).
Everything downstream works with exact rationals; there is no floating-point
mode anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


class HurwitzError(Exception):
    """Base class for all domain errors raised by this package."""


class DegreeMismatch(HurwitzError):
    """sum(mu) != sum(nu)."""


class NegativeR(HurwitzError):
    """2g - 2 + m + n < 0 (no such cover exists)."""


class RZero(HurwitzError):
    """A graph-based method was asked for an r = 0 family it cannot represent."""


class Infeasible(HurwitzError):
    """A method was asked for parameters beyond the range it can compute in
    practice; the message names the methods that can answer."""


class NonIntegerGenus(HurwitzError):
    """V - E + F is odd, so the object is not a map on a closed surface."""


class NonterminatingTrace(HurwitzError):
    """A traffic-rule trace closed up without meeting a tick mark."""


class InvalidChain(HurwitzError):
    """Consecutive quotients of a permutation chain are not transpositions,
    or the chain admits no ribbon-graph realization."""


class InconsistentFiber(HurwitzError):
    """Two weightings of one skeleton tropicalized to different tropical
    skeletons; this would falsify the claimed linearity of tropicalization."""


class OnWall(HurwitzError):
    """A parameter point lies on a wall, so its chamber is undefined."""


class FitFailed(HurwitzError):
    """An interpolated chamber polynomial failed exact hold-out validation."""


class InsufficientSamples(HurwitzError):
    """Not enough in-chamber integer points to determine the polynomial."""


class Partition:
    """An ordered tuple of positive integers (mu_1, ..., mu_m).

    The order matters: part i is the label of the i-th marked preimage, so
    (2, 1) and (1, 2) are different partitions for our purposes.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if not parts:
            raise ValueError("a partition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"partition parts must be >= 1, got {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(("Partition", self.parts))

    def __repr__(self):
        return f"Partition({self.parts})"

    def sorted_desc(self) -> tuple:
        """The underlying multiset, as a descending tuple."""
        return tuple(sorted(self.parts, reverse=True))

    def serialize(self) -> str:
        """Comma-separated parts, e.g. "2,1"."""
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        try:
            parts = [int(p) for p in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"cannot parse partition from {text!r}") from exc
        return cls(parts)


def format_rational(q: Fraction) -> str:
    """Serialize as "p/q", or just "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class HurwitzParams:
    """Validated parameter triple (g, mu, nu) with the derived quantities.

    Invariants: sum(mu) == sum(nu) == d and r == 2g - 2 + m + n >= 0.
    r == 0 is legal here (the case g = 0, mu = nu = (d)); check_method_r
    rejects it for the graph-based methods, because a graph with zero
    vertices is degenerate.
    """

    g: int
    mu: Partition
    nu: Partition
    d: int = field(init=False)
    m: int = field(init=False)
    n: int = field(init=False)
    r: int = field(init=False)

    def __post_init__(self):
        if self.g < 0:
            raise ValueError(f"genus must be >= 0, got {self.g}")
        if self.mu.size != self.nu.size:
            raise DegreeMismatch(
                f"sum(mu) = {self.mu.size} != sum(nu) = {self.nu.size}"
            )
        object.__setattr__(self, "d", self.mu.size)
        object.__setattr__(self, "m", len(self.mu))
        object.__setattr__(self, "n", len(self.nu))
        r = 2 * self.g - 2 + self.m + self.n
        if r < 0:
            raise NegativeR(f"r = 2g-2+m+n = {r} < 0")
        object.__setattr__(self, "r", r)

    def describe(self) -> dict:
        return {
            "g": self.g,
            "mu": self.mu.serialize(),
            "nu": self.nu.serialize(),
            "d": self.d,
            "m": self.m,
            "n": self.n,
            "r": self.r,
        }


# Largest r the ribbon method accepts.  Its tables hold the connected maps on
# 2r darts up to per-edge swaps with m vertices and n faces: at most 20,640
# records at r = 5, built in under a second, but about 12!/2^6 = 7.5 M over
# all buckets at r = 6.  A count builds only the records under its caps;
# test_bounded_r6_tables_pinned in tests/test_ribbon.py pins three r = 6
# tables under caps (4,276 to 33,665 records, about 0.2 to 1 s each on a
# 2-core VM), the starting point for a per-bucket cost rule.
MAX_RIBBON_R = 5


def check_method_r(method: str, r: int) -> None:
    """Raise unless the method ("permutation", "ribbon" or "tropical") can
    answer at r; the message names a method that can.

    Only the permutation method represents r = 0 (a graph needs r >= 1
    vertices): RZero for the others.  The ribbon method stops at
    MAX_RIBBON_R: Infeasible beyond it.  This is the one range check; the
    CLI runs it before it loads a pipeline, and the pipelines' count and
    listing entries run it before they build anything.
    """
    if r < 1 and method != "permutation":
        raise RZero(
            f"the {method} method needs r >= 1; the permutation method "
            "(compute --method permutation) answers r = 0"
        )
    if method == "ribbon" and r > MAX_RIBBON_R:
        raise Infeasible(
            f"the ribbon method needs r <= {MAX_RIBBON_R}, got r = {r}; "
            "no method lists skeletons or ribbon classes there, but the "
            "permutation and tropical methods count H (compute --method "
            "permutation or --method tropical)"
        )


def hurwitz_params(g: int, mu, nu) -> HurwitzParams:
    """Build validated parameters; raises DegreeMismatch or NegativeR."""
    if not isinstance(mu, Partition):
        mu = Partition(mu)
    if not isinstance(nu, Partition):
        nu = Partition(nu)
    return HurwitzParams(g, mu, nu)


def descending_partitions(d: int) -> list:
    """Every partition of d as a tuple of weakly decreasing parts."""

    def gen(total, cap):
        if total == 0:
            yield ()
            return
        for p in range(min(total, cap), 0, -1):
            for rest in gen(total - p, p):
                yield (p,) + rest

    return list(gen(d, d))


def sweep_params(max_d: int, max_r: int):
    """Yield every (g, mu, nu) with sum <= max_d and 1 <= r <= max_r, as plain
    tuples, partitions taken descending (parts are labels; counts are
    invariant under reordering)."""
    for d in range(1, max_d + 1):
        parts = descending_partitions(d)
        for mu in parts:
            for nu in parts:
                g = 0
                while True:
                    r = 2 * g - 2 + len(mu) + len(nu)
                    if r > max_r:
                        break
                    if r >= 1:
                        yield g, mu, nu
                    g += 1
