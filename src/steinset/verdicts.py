"""Eventual-fullness verdicts for eventually periodic sequences of sets.

An infinite sequence A_0, A_1, ... of subsets of cyclic groups is encoded
finitely as a prefix plus a repeating cycle.  On that class, "the test set
is full for all but finitely many positions" is decidable exactly: it holds
iff every cycle entry passes, and the threshold k0 is determined by the
last failing prefix entry.

The three verdicts differ only in the per-position test:

* eps: the signed product along a fixed sign vector is full;
* pm:  some sign-count class (p, q) with p + q = m is full everywhere;
* sym: the plain m-fold sumset is full (entries must be symmetric sets,
  where pm and sym verdicts provably agree in kind).

Spec literal: ``"prefix=[4:{0};2:{0,1}] cycle=[7:{6,0,1}]"`` (prefix part
optional).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Callable, Sequence

from .groups import CyclicSet
from .sumsets import iterated_sumset, signed_product, signed_product_counts
from .values import SteinsetError, Value, set_field

if TYPE_CHECKING:
    from .haight import HaightWitness


_SPEC_RE = re.compile(
    r"^\s*(?:prefix=\[(?P<prefix>[^\[\]]*)\]\s+)?cycle=\[(?P<cycle>[^\[\]]*)\]\s*$"
)


class NotSymmetricError(SteinsetError, ValueError):
    """A sequence entry has no symmetry center; carries the position."""

    def __init__(self, position: int, entry: CyclicSet):
        self.position = position
        self.entry = entry
        super().__init__(f"entry at position {position} ({entry}) is not symmetric")


def _parse_entries(body: str) -> tuple[CyclicSet, ...]:
    parts = [p for p in (s.strip() for s in body.split(";")) if p]
    return tuple(CyclicSet.parse(p) for p in parts)


class SeqSpec(Value):
    """Finite prefix plus non-empty repeating cycle of non-empty sets."""

    __slots__ = ("prefix", "cycle")

    def __init__(self, prefix: tuple[CyclicSet, ...], cycle: tuple[CyclicSet, ...]) -> None:
        set_field(self, "prefix", prefix)
        set_field(self, "cycle", cycle)
        if not self.cycle:
            raise ValueError("cycle must be non-empty")
        for pos, entry in enumerate(list(self.prefix) + list(self.cycle)):
            if entry.is_empty():
                raise ValueError(f"entry at position {pos} is empty")

    @classmethod
    def constant(cls, entry: CyclicSet) -> "SeqSpec":
        return cls((), (entry,))

    @classmethod
    def parse(cls, text: str) -> "SeqSpec":
        m = _SPEC_RE.match(text)
        if not m:
            raise ValueError(f"malformed sequence spec: {text!r}")
        prefix = _parse_entries(m.group("prefix") or "")
        cycle = _parse_entries(m.group("cycle"))
        return cls(prefix, cycle)

    def to_literal(self) -> str:
        cyc = ";".join(e.to_literal() for e in self.cycle)
        if not self.prefix:
            return f"cycle=[{cyc}]"
        pre = ";".join(e.to_literal() for e in self.prefix)
        return f"prefix=[{pre}] cycle=[{cyc}]"

    def __str__(self) -> str:
        return self.to_literal()

    def entry(self, k: int) -> CyclicSet:
        """The set at position k of the encoded infinite sequence."""
        if k < 0:
            raise ValueError(f"position must be >= 0, got {k}")
        if k < len(self.prefix):
            return self.prefix[k]
        return self.cycle[(k - len(self.prefix)) % len(self.cycle)]


class Verdict(Value):
    """Outcome of an eventual-fullness check.

    holds=True:  every position k >= k0 passes; k0 never exceeds
                 len(prefix) + len(cycle).
    holds=False: ``witnesses`` lists cycle indices (0-based within one
                 period) whose test set is not full, hence infinitely many
                 failing positions.
    pm verdicts also carry the first succeeding sign-count class.
    """

    __slots__ = ("holds", "k0", "witnesses", "sign_class")

    def __init__(
        self,
        holds: bool,
        k0: int | None = None,
        witnesses: tuple[int, ...] = (),
        sign_class: tuple[int, int] | None = None,
    ) -> None:
        set_field(self, "holds", holds)
        set_field(self, "k0", k0)
        set_field(self, "witnesses", witnesses)
        set_field(self, "sign_class", sign_class)

    def kind(self) -> str:
        return "Holds" if self.holds else "Fails"

    def to_json_obj(self) -> dict:
        """Outcome fields shared by CLI output and store records.

        A new field also goes in ``store._PAYLOAD_FIELDS``, or the store
        parses every line holding it when it opens.
        """
        if not self.holds:
            return {"holds": False, "witnesses": list(self.witnesses)}
        out: dict = {"holds": True, "k0": self.k0}
        if self.sign_class is not None:
            out["sign_class"] = list(self.sign_class)
        return out


def _k0(spec: SeqSpec, test: Callable[[CyclicSet], bool]) -> int:
    """One past the last prefix position that fails ``test`` (0 if none does)."""
    return max((i + 1 for i, entry in enumerate(spec.prefix) if not test(entry)), default=0)


def _run(spec: SeqSpec, test: Callable[[CyclicSet], bool]) -> Verdict:
    failing = tuple(i for i, entry in enumerate(spec.cycle) if not test(entry))
    if failing:
        return Verdict(holds=False, witnesses=failing)
    return Verdict(holds=True, k0=_k0(spec, test))


def eps_verdict(spec: SeqSpec, signs: Sequence[int]) -> Verdict:
    """Is the signed product along ``signs`` full at all but finitely many positions?"""
    return _run(spec, lambda entry: signed_product(entry, signs).is_full())


def _negation_is_translate(entry: CyclicSet) -> bool:
    """Is -A a translate of A?  O(n): A's bit string reversed is n - 1 - A, a
    translate of -A, and the translates of A are the windows of the string doubled."""
    bits = format(entry.mask, f"0{entry.modulus}b")
    return bits[::-1] in bits + bits


def pm_verdict(spec: SeqSpec, m: int) -> Verdict:
    """Does some sign-count class of length m succeed on every cycle entry?

    Classes are scanned in the sign_count_classes order and the first
    succeeding one is reported.  On failure, ``witnesses`` collects the
    first failing cycle position of each class.

    Only the classes (p, q) with p >= q are scanned: (q, p) gives
    qA - pA = -(pA - qA), which is full at exactly the same entries, and
    (p, q) comes first in the order.  A class stops at its first failing
    cycle entry.  If (m, 0) first fails at i and -A is a translate A + t of
    A at every entry up to i, each pA - qA = mA + qt is a translate of mA
    there, so every class first fails at i and the scan stops.
    """
    if m < 1:
        raise ValueError(f"length must be >= 1, got {m}")
    first_failures = set()
    for minus in range(m // 2 + 1):  # lazily: the first class usually decides
        plus = m - minus
        test = lambda e: signed_product_counts(e, plus, minus).is_full()
        failing = next((i for i, entry in enumerate(spec.cycle) if not test(entry)), None)
        if failing is None:
            return Verdict(holds=True, k0=_k0(spec, test), sign_class=(plus, minus))
        if minus == 0 and all(map(_negation_is_translate, spec.cycle[:failing + 1])):
            return Verdict(holds=False, witnesses=(failing,))
        first_failures.add(failing)
    return Verdict(holds=False, witnesses=tuple(sorted(first_failures)))


def sym_verdict(spec: SeqSpec, m: int) -> Verdict:
    """Is the m-fold sumset full at all but finitely many positions?

    Every entry must be symmetric (have a symmetry center); the first
    non-symmetric position raises NotSymmetricError.  On symmetric input
    this agrees in kind with pm_verdict(spec, m).
    """
    if m < 1:
        raise ValueError(f"length must be >= 1, got {m}")
    for pos, entry in enumerate(list(spec.prefix) + list(spec.cycle)):
        if entry.symmetry_center() is None:
            raise NotSymmetricError(pos, entry)
    return _run(spec, lambda entry: iterated_sumset(entry, m).is_full())


# verdict op -> function of (spec, sign vector or length m); the ops name the
# CLI commands (verdict-<op>) and the "op" field of stored verdict records
VERDICTS = {"eps": eps_verdict, "pm": pm_verdict, "sym": sym_verdict}


def example_family_c2n1(n: int) -> SeqSpec:
    """Constant family {-1, 0, 1} in Z_{2n+1}, n >= 2.

    The m-fold sumset is the interval [-m, m] mod 2n+1, so the sym verdict
    holds at m = n and the pm verdict fails at m = n-1: the family separates
    consecutive fullness orders.
    """
    if n < 2:
        raise ValueError(f"family is defined for n >= 2, got {n}")
    return SeqSpec.constant(CyclicSet.from_members(2 * n + 1, (-1, 0, 1)))


class HaightSequenceReport(Value):
    """Checks of a chain of witnesses for k = 1..K used as one cycle.

    diff_full_positions: every cycle entry has A - A full (class (1, 1)), as
    verify_witness found.
    pm2: the pm verdict at m = 2 (holds, with its succeeding class).
    tail_failures: for each m <= K, the failing cycle positions of the
    all-plus sign vector of length m (non-empty, because entry K fails:
    K-fold deficiency forces m-fold deficiency for every m <= K).
    """

    __slots__ = ("count", "diff_full_positions", "pm2", "tail_failures")

    def __init__(
        self,
        count: int,
        diff_full_positions: bool,
        pm2: Verdict,
        tail_failures: dict[int, tuple[int, ...]] | None = None,
    ) -> None:
        set_field(self, "count", count)
        set_field(self, "diff_full_positions", diff_full_positions)
        set_field(self, "pm2", pm2)
        set_field(self, "tail_failures", {} if tail_failures is None else tail_failures)

    @property
    def ok(self) -> bool:
        return (
            self.diff_full_positions
            and self.pm2.holds
            and all(self.tail_failures[m] for m in range(1, self.count + 1))
        )


class WitnessChainError(SteinsetError, ValueError):
    """A k = 1..K chain is empty, out of k order or has a failing witness."""


def verify_haight_sequence(witnesses: Sequence[HaightWitness]) -> HaightSequenceReport:
    """Re-verify a chain of witnesses for k = 1..K and check its verdicts.

    The witness sets, in k order, form the cycle of a sequence spec.  The
    report records that the difference class (1, 1) is full everywhere
    (so the pm verdict at m = 2 holds) while the all-plus verdict of every
    length m <= K fails.
    """
    from .haight import verify_witness

    if not witnesses:
        raise WitnessChainError("witness list must be non-empty")
    for i, w in enumerate(witnesses):
        if w.k != i + 1:
            raise WitnessChainError(
                f"expected witness for k={i + 1} at position {i}, got k={w.k}"
            )
        ok, reason = verify_witness(w)
        if not ok:
            raise WitnessChainError(f"witness at position {i} (k={w.k}) invalid: {reason}")
    spec = SeqSpec(prefix=(), cycle=tuple(w.subset for w in witnesses))
    pm2 = pm_verdict(spec, 2)
    tails = {
        m: eps_verdict(spec, (1,) * m).witnesses for m in range(1, len(witnesses) + 1)
    }
    return HaightSequenceReport(
        count=len(witnesses),
        diff_full_positions=True,  # verify_witness found every A - A full
        pm2=pm2,
        tail_failures=tails,
    )
