"""Doubly exponential thick sets and exact non-vanishing combination checks.

For an index a >= 1 the block around the tower value 2^(2^a) is the integer
interval [2^(2^a) - a, 2^(2^a) + a].  A family of pairwise disjoint index
sets A produces one thick set T_A per index set, the union of its blocks;
the blocks contain runs of length 2a + 1, hence arbitrarily long runs as
the indices grow.

Threshold pair for a coefficient bound m >= 1: xi(m) is the least x >= 1
with

    2^(2^x) - x  >  m^2 * (2^(2^(x-1)) + x),

certified to persist for every larger x, and Xi(m) = 2^(2^xi) + xi.

Tail certificate.  Write y = 2^(2^(x-1)); the inequality reads
g(x) = y^2 - m^2*y > (m^2 + 1)*x.  Stepping x -> x+1 squares y, and for
y >= m^2 + 2 we get g(x+1) = y^2*(y^2 - m^2) >= y*g(x) >= 2*g(x), while the
right side grows by only m^2 + 1 <= g(x); so once g(x0) > (m^2+1)*x0 holds
with y(x0) >= m^2 + 2, the inequality holds for all x >= x0.  (The domain
is x >= 1 so that 2^(2^(x-1)) stays integral.)

The independence check is the cross-validation of the thresholds: for every
choice of n <= m distinct sets, nonzero coefficients in [-m, m], and points
x_i in the expanded blocks not all inside [-Xi(m), Xi(m)], the combination
sum(lambda_i * x_i) must be nonzero.  It is verified by exhaustive
enumeration in exact integer arithmetic.

Blocks against the threshold: block a lies inside [-Xi(m), Xi(m)] iff
a <= xi.  With T = 2^(2^xi) >= 4, a block a <= xi ends by T + xi = Xi, and
one a > xi starts at 2^(2^a) - a (increasing in a) >= T^2 - xi - 1 > Xi, as
T^2 - T >= 3T > 2xi + 1.  So a set's points, 2a + 1 per block, and those
inside [-Xi, Xi] are counted from its indices alone.  Indices are at most
MAX_INDEX = 20: a tower has at most 2^20 + 1 bits, like the largest mask
that groups.MAX_MODULUS allows.
"""

from __future__ import annotations

import re
from itertools import combinations, product
from math import prod
from typing import Iterable, Sequence

from .values import SteinsetError, Value, set_field

DEFAULT_A_MAX = 5
MAX_INDEX = 20  # largest index a spec accepts
DEFAULT_TUPLE_CAP = 10_000_000

_SET = r"\{[^{}]*\}"  # one set literal; a spec's sets are these, comma-separated
_SET_RE = re.compile(_SET)
_SPEC_RE = re.compile(rf"^\s*sets=\[(?P<sets>\s*{_SET}(?:\s*,\s*{_SET})*\s*)\]\s+a_max=(?P<amax>\d+)\s*$")


class BudgetExceededError(SteinsetError, RuntimeError):
    """The enumeration would exceed the configured tuple cap."""

    prefix = "refused"


def power_tower(a: int) -> int:
    """2^(2^a) by repeated squaring, exact at any size."""
    if a < 0:
        raise ValueError(f"index must be >= 0, got {a}")
    t = 2
    for _ in range(a):
        t *= t
    return t


def _certified(mm: int, x: int, y: int) -> bool:
    """The inequality at x and the certificate's y >= m^2 + 2, for y = 2^(2^(x-1)), mm = m^2."""
    return y * y - x > mm * (y + x) and y >= mm + 2


def xi_sequence(m: int) -> tuple[int, int]:
    """(xi, Xi) for coefficient bound m: least certified threshold and its value.

    xi is the least x >= 1 where the defining inequality holds and the tail
    certificate applies (y = 2^(2^(x-1)) >= m^2 + 2); Xi = 2^(2^xi) + xi.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    mm = m * m
    x = 1
    y = 2  # 2^(2^(x-1)) at x = 1
    while True:
        if _certified(mm, x, y):
            return x, y * y + x
        x += 1
        y *= y


def tail_certificate_holds(m: int, x: int) -> bool:
    """Does the inequality hold at x with the doubling certificate for all larger x?"""
    if m < 1 or x < 1:
        return False
    return _certified(m * m, x, power_tower(x - 1))


class BigInterval(Value):
    """Integer block [2^(2^a) - a, 2^(2^a) + a] with its source index a."""

    __slots__ = ("lo", "hi", "index")

    def __init__(self, lo: int, hi: int, index: int) -> None:
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "index", index)

    @classmethod
    def from_index(cls, a: int) -> "BigInterval":
        if a < 1:
            raise ValueError(f"index must be >= 1, got {a}")
        base = power_tower(a)
        return cls(base - a, base + a, a)


class ThickFamilySpec(Value):
    """Pairwise disjoint, non-empty index sets plus the expansion bound a_max.

    Text literal: ``"sets=[{1,4},{2,5}] a_max=5"``.
    """

    __slots__ = ("index_sets", "a_max")

    def __init__(self, index_sets: tuple[frozenset[int], ...], a_max: int = DEFAULT_A_MAX) -> None:
        set_field(self, "index_sets", index_sets)
        set_field(self, "a_max", a_max)
        if not self.index_sets:
            raise ValueError("at least one index set is required")
        seen: set[int] = set()
        for i, s in enumerate(self.index_sets):
            if not s:
                raise ValueError(f"index set {i} is empty")
            for a in s:
                if not 1 <= a <= self.a_max:
                    raise ValueError(f"index {a} outside [1, a_max={self.a_max}]")
                if a > MAX_INDEX:
                    raise ValueError(f"index {a} above the largest index {MAX_INDEX}")
                if a in seen:
                    raise ValueError(f"index {a} appears in more than one set")
                seen.add(a)

    @classmethod
    def unchecked(
        cls, index_sets: Sequence[Iterable[int]], a_max: int = DEFAULT_A_MAX
    ) -> "ThickFamilySpec":
        """Bypass validation (for negative controls with overlapping sets)."""
        obj = object.__new__(cls)
        set_field(obj, "index_sets", tuple(frozenset(s) for s in index_sets))
        set_field(obj, "a_max", a_max)
        return obj

    @classmethod
    def parse(cls, text: str) -> "ThickFamilySpec":
        m = _SPEC_RE.match(text)
        if not m:
            raise ValueError(f"malformed thick family spec: {text!r}")
        sets = []
        for body in _SET_RE.findall(m.group("sets")):
            items = body.strip("{}").strip()
            if not items:
                raise ValueError("empty index set in spec literal")
            sets.append(frozenset(int(t) for t in items.split(",")))
        return cls(tuple(sets), int(m.group("amax")))

    def to_literal(self) -> str:
        parts = ",".join(
            "{" + ",".join(str(a) for a in sorted(s)) + "}" for s in self.index_sets
        )
        return f"sets=[{parts}] a_max={self.a_max}"


def thick_intervals(spec: ThickFamilySpec) -> list[list[BigInterval]]:
    """Per index set, its blocks in increasing order; exact at any size.

    Within one set the blocks are pairwise disjoint: consecutive towers are
    squared, which outruns the linear slack a.
    """
    return [
        [BigInterval.from_index(a) for a in sorted(s) if a <= spec.a_max]
        for s in spec.index_sets
    ]


class IndependenceCounterexample(Value):
    __slots__ = ("set_indices", "points", "coefficients")

    def __init__(
        self, set_indices: tuple[int, ...], points: tuple[int, ...], coefficients: tuple[int, ...]
    ) -> None:
        set_field(self, "set_indices", set_indices)
        set_field(self, "points", points)
        set_field(self, "coefficients", coefficients)


class IndependenceResult(Value):
    __slots__ = ("passed", "tuples_checked", "counterexample")

    def __init__(
        self,
        passed: bool,
        tuples_checked: int,
        counterexample: IndependenceCounterexample | None = None,
    ) -> None:
        set_field(self, "passed", passed)
        set_field(self, "tuples_checked", tuples_checked)
        set_field(self, "counterexample", counterexample)


def independence_check(
    spec: ThickFamilySpec, m: int, tuple_cap: int = DEFAULT_TUPLE_CAP
) -> IndependenceResult:
    """Exhaustively verify non-vanishing combinations up to coefficient bound m.

    Quantification: n = 1..min(m, #sets), every n-subset of the family,
    every point tuple with at least one |x_i| > Xi(m), every coefficient
    tuple over [-m, m] without zeros.  Point tuples entirely inside
    [-Xi(m), Xi(m)] are outside the guarantee and are skipped.

    The tuple count comes from block sizes (module docstring), so a family
    over ``tuple_cap`` (which must be >= 0) is refused before any tower is built.

    A failure returns the zero-sum tuple; on a valid (pairwise disjoint)
    family a failure would mean the thresholds themselves are wrong, which
    is exactly what this check cross-validates.
    """
    if tuple_cap < 0:
        raise ValueError(f"tuple cap must be >= 0, got {tuple_cap}")
    xi, big_xi = xi_sequence(m)
    # per set: (points, points inside [-Xi, Xi]) from its listed indices
    sizes = [
        (sum(2 * a + 1 for a in s if a <= spec.a_max),
         sum(2 * a + 1 for a in s if a <= min(xi, spec.a_max)))
        for s in spec.index_sets
    ]
    top = min(m, len(sizes))

    # refuse oversized enumerations before starting; 2m nonzero coefficients
    total_tuples = sum(
        (prod(t for t, _ in combo) - prod(s for _, s in combo)) * (2 * m) ** n
        for n in range(1, top + 1)
        for combo in combinations(sizes, n)
    )
    if total_tuples > tuple_cap:
        raise BudgetExceededError(f"{total_tuples} tuples exceed the cap of {tuple_cap}")

    points = [
        [x for block in blocks for x in range(block.lo, block.hi + 1)]
        for blocks in thick_intervals(spec)
    ]
    checked = 0
    for n in range(1, top + 1):
        lam_vectors = None  # built at the first combo of this level with a point outside
        for combo in combinations(range(len(points)), n):
            if all(sizes[i][0] == sizes[i][1] for i in combo):
                continue  # every point inside [-Xi, Xi]
            if lam_vectors is None:
                coeffs = [c for c in range(-m, m + 1) if c != 0]
                lam_vectors = list(product(coeffs, repeat=n))
            for xs in product(*(points[i] for i in combo)):
                if all(abs(x) <= big_xi for x in xs):
                    continue
                for lams in lam_vectors:
                    checked += 1
                    if sum(l * x for l, x in zip(lams, xs)) == 0:
                        return IndependenceResult(
                            passed=False,
                            tuples_checked=checked,
                            counterexample=IndependenceCounterexample(
                                set_indices=combo, points=xs, coefficients=lams
                            ),
                        )
    return IndependenceResult(passed=True, tuples_checked=checked)
