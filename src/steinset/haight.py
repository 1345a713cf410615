"""Search for difference-covering sets with deficient k-fold sumsets.

A (k, n) witness is a set A in Z_n whose differences cover the whole group
(A - A = Z_n) while the k-fold sumset kA misses at least one residue; the
missing residue is kept as the certificate.  Both properties are invariant
under affine maps x -> u*x + c, so searches enumerate or report one
canonical representative per affine class.

Both search modes run one depth-first walk over raw int masks.  It starts
from {0} and adds residues in increasing order, so each mask is reached
once, and it walks only the sets whose wrap-around gap n - max(A) is one
of their largest cyclic gaps: every non-empty set has such a translate
through 0, and every prefix of one is another (see _scan_modulus).  The
levels 1A..kA, -A and A - A are updated incrementally as residues are
added.  Adding elements only grows kA, so a subtree is cut as soon as kA
is full, or once |A| reaches max_set_size.

Exhaustive search walks every node.  The first witness mask met in an
affine class marks every image of the class that contains 0 (the only
masks the walk can reach) and takes their minimum, the canonical form, as
the representative; later masks of the class are a set lookup.

Stochastic search walks in a random order and stops after a budget of
child evaluations per modulus.  Each expanded node draws one coin per
child from an explicitly specified xorshift64* generator, and the children
whose coin is set are walked first, so the first dive builds a random
half-density set and later dives vary it.  A sampled class is rarely met
twice, so each witness mask is reduced by canonical_mask instead of
marking its orbit.  Runs reproduce exactly from (seed, budget, n_range),
and a budget >= 2^(n-1) returns the exhaustive classes.

Neither mode re-checks the walk's output, whose A - A and kA are exact.
verify_witness checks a witness from a file or the store from scratch,
with the k-fold core sumsets.kfold_mask that canonical_witness uses too.
"""

from __future__ import annotations

import weakref
from typing import Literal

from .groups import (
    CANONICAL_MAX_MODULUS,
    CyclicSet,
    affine_images_through_zero,
    canonical_mask,
    negate_mask,
)
from .sumsets import kfold_mask, sumset_mask
from .values import Value, set_field

# Exhaustive enumeration is refused beyond this modulus: the candidate
# space grows as 2^(n-1) even after fixing 0 in A, and the gap and kA-full
# cuts only slow the growth.  In one run (CPython 3.11.7, shared 2-vCPU
# x86-64 VM, where the same case varies up to 2x between runs) a k=2 scan
# took 0.05 s at n = 18, 0.06 s at 19, 0.15 s at 20, 0.25 s at 21 and
# 0.50 s at 22, about 3x per two steps, so for k=2 the cap is far above
# what finishes in minutes.  Larger k fill kA sooner and cut more: the
# k=4 scan at n = 40 took 1.0 s.
EXHAUSTIVE_CAP = 40

_MASK64 = (1 << 64) - 1


class Xorshift64Star:
    """xorshift64* generator: shifts 12/25/27, multiplier 0x2545F4914F6CDD1D.

    64-bit state.  A zero seed is remapped to 0x9E3779B97F4A7C15 because the
    all-zero state is a fixed point of the xorshift map.
    """

    __slots__ = ("state",)

    MULTIPLIER = 0x2545F4914F6CDD1D
    ZERO_SEED_REPLACEMENT = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = (seed & _MASK64) or self.ZERO_SEED_REPLACEMENT

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * self.MULTIPLIER) & _MASK64

    def bits(self, width: int) -> int:
        """``width`` pseudo-random bits assembled little-endian from 64-bit words."""
        out = 0
        got = 0
        while got < width:
            out |= self.next_u64() << got
            got += 64
        return out & ((1 << width) - 1)


def modulus_stream_seed(seed: int, n: int) -> int:
    """Per-modulus child seed, independent of the order moduli are visited."""
    return (seed ^ (n * 0x9E3779B97F4A7C15)) & _MASK64


class HaightWitness(Value):
    """k, the set A, and one residue certifying that kA is not all of Z_n."""

    __slots__ = ("k", "subset", "certificate", "__weakref__")

    def __init__(self, k: int, subset: CyclicSet, certificate: int) -> None:
        set_field(self, "k", k)
        set_field(self, "subset", subset)
        set_field(self, "certificate", certificate)

    @property
    def modulus(self) -> int:
        return self.subset.modulus

    def to_json_obj(self) -> dict:
        """The store payload; a new field also goes in ``store._PAYLOAD_FIELDS``."""
        return {
            "k": self.k,
            "n": self.modulus,
            "set": list(self.subset.members()),
            "cert": self.certificate,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "HaightWitness":
        """Parse a payload; residues must lie in [0, n), as in a set literal."""
        n, members = int(obj["n"]), obj["set"]
        for a in members:
            if not 0 <= a < n:
                raise ValueError(f"residue {a} out of range for modulus {n}")
        return cls(
            k=int(obj["k"]),
            subset=CyclicSet.from_members(n, members),
            certificate=int(obj["cert"]),
        )


def _least_missing(mask: int) -> int:
    """The least residue not in ``mask``."""
    return (~mask & (mask + 1)).bit_length() - 1


def verify_witness(w: HaightWitness) -> tuple[bool, str | None]:
    """Recompute both witness conditions from scratch; (ok, failure reason)."""
    if w.k < 1:
        return False, f"k must be >= 1, got {w.k}"
    if w.subset.is_empty():
        return False, "witness set is empty"
    n, a = w.modulus, w.subset.mask
    if not 0 <= w.certificate < n:
        return False, f"certificate {w.certificate} out of range for modulus {n}"
    differences = sumset_mask(a, negate_mask(a, n), n)
    if differences != (1 << n) - 1:
        return False, f"difference set not full (missing {_least_missing(differences)})"
    if kfold_mask(a, w.k, n) >> w.certificate & 1:
        return False, "certificate present in kA"
    return True, None


class SearchConfig(Value):
    __slots__ = ("k", "n_range", "mode", "budget", "seed", "max_set_size")

    def __init__(
        self,
        k: int,
        n_range: tuple[int, int],
        mode: Literal["exhaustive", "stochastic"] = "exhaustive",
        budget: int = 100_000,
        seed: int = 0,
        max_set_size: int | None = None,
    ) -> None:
        set_field(self, "k", k)
        set_field(self, "n_range", n_range)
        set_field(self, "mode", mode)
        set_field(self, "budget", budget)
        set_field(self, "seed", seed)
        set_field(self, "max_set_size", max_set_size)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        lo, hi = self.n_range
        if not 1 <= lo <= hi:
            raise ValueError(f"bad modulus range {self.n_range}")
        if self.mode not in ("exhaustive", "stochastic"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "stochastic" and hi > CANONICAL_MAX_MODULUS:
            # every witness found is reduced to canonical form, which is capped
            raise ValueError(
                f"stochastic modulus range {self.n_range} exceeds canonical cap "
                f"{CANONICAL_MAX_MODULUS}"
            )
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if self.max_set_size is not None and self.max_set_size < 1:
            raise ValueError(f"max_set_size must be >= 1, got {self.max_set_size}")


# Witnesses per (k, n, mask), shared while anything holds them: callers
# that keep many search results hold one instance per class.  Weak values
# keep the witnesses from outliving their users.
_WITNESSES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def canonical_witness(k: int, canonical_set: CyclicSet) -> HaightWitness:
    """The stored form of a witness class: its canonical set and least certificate."""
    n, mask = canonical_set.modulus, canonical_set.mask
    w = _WITNESSES.get((k, n, mask))
    if w is None:
        cert = _least_missing(kfold_mask(mask, k, n))
        w = _WITNESSES[k, n, mask] = HaightWitness(k=k, subset=canonical_set, certificate=cert)
    return w


def _scan_modulus(
    n: int,
    k: int,
    max_set_size: int | None,
    rng: Xorshift64Star | None = None,
    budget: int = 0,
) -> list[HaightWitness]:
    """Witness classes at one modulus, one canonical representative each.

    The walk visits the masks through 0 whose wrap-around gap n - max(A)
    is at least every internal gap a_(i+1) - a_i.  Every class has one:
    translating the member that follows a largest cyclic gap to 0 makes
    that gap the wrap-around gap.  Every prefix of such a mask is another,
    since its internal gaps are among the mask's and its top is no higher.
    So a node with largest member ``last`` and largest internal gap g needs
    only the children x with x - last <= n - x and g <= n - x, that is
    last < x <= min(n - g, (n + last) // 2); the root {0} takes 1..n//2.
    Pinning the least nonzero member to a divisor of n as well is not
    valid: no affine image of {0,3,4,5,6,9} mod 14 through 0 meets both.

    With an rng, children are walked in coin order (see the module
    docstring) and the walk stops after ``budget`` child evaluations.  Each
    evaluates a distinct mask containing 0, so a budget >= 2^(n-1) never
    stops the walk.
    """
    if n == 1:
        return []  # Z_1 has only the full subset, never a witness
    full = (1 << n) - 1
    cap = n if max_set_size is None else max_set_size
    seen: set[int] = set()
    reps: set[int] = set()
    # node: A, -A, A - A, levels (1A, ..., kA), max(A), largest internal gap
    stack = [(1, 1, 1, (1,) * k, 0, 0)]
    while stack:
        a, neg, diff, levels, last, gap = stack.pop()
        if a.bit_count() >= cap:
            continue
        # a child x keeps its new gaps x - last and gap within n - x
        xs = range(last + 1, min(n - gap, (n + last) // 2) + 1)
        if rng is not None:
            xs = xs[:budget]
            budget -= len(xs)
            top = len(stack)
        for x in xs:
            y = n - x  # -x mod n; rotating by x and by y are inverse
            prev = 1
            grown = []
            for level in levels:
                # with B = A | {x}: jB = jA | ((j-1)B + x)
                prev = level | (((prev << x) | (prev >> y)) & full)
                grown.append(prev)
            if prev == full:
                continue  # kA full here and in every superset
            b = a | (1 << x)
            nb = neg | (1 << y)
            # B - B = (A - A) | (B - x) | (x - B)
            d = diff | (((b << y) | (b >> x)) & full) | (((nb << x) | (nb >> y)) & full)
            if d == full and b not in seen:
                if rng is None:
                    # mark the class's masks through 0, the only ones walked
                    images = set(affine_images_through_zero(b, n))
                    seen |= images
                    reps.add(min(images))
                else:  # a sampled class is rarely met twice
                    reps.add(canonical_mask(b, n))
            stack.append((b, nb, d, tuple(grown), x, max(gap, x - last)))
        if rng is not None:
            if not budget:
                break
            kids = stack[top:]
            coins = rng.bits(len(kids))
            # the stack pops its last entry first: set coins, then the
            # rest, each group smallest residue first
            order = sorted(range(len(kids)), key=lambda i: (coins >> i & 1, -i))
            stack[top:] = [kids[i] for i in order]
    return [canonical_witness(k, CyclicSet(n, m)) for m in sorted(reps)]


def exhaustive_search(cfg: SearchConfig) -> list[HaightWitness]:
    """Every witness class in n_range, canonically deduplicated and sorted.

    Deterministic; result is sorted by (modulus, canonical mask).
    """
    if cfg.mode != "exhaustive":
        raise ValueError(f"config mode is {cfg.mode!r}, expected 'exhaustive'")
    lo, hi = cfg.n_range
    if hi > EXHAUSTIVE_CAP:
        raise ValueError(f"modulus range {cfg.n_range} exceeds exhaustive cap {EXHAUSTIVE_CAP}")
    out: list[HaightWitness] = []
    for n in range(lo, hi + 1):
        out.extend(_scan_modulus(n, cfg.k, cfg.max_set_size))
    return out


def minimal_modulus(k: int, cap: int) -> tuple[int, HaightWitness] | None:
    """Least modulus n <= cap admitting a (k, n) witness, with one representative."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if cap > EXHAUSTIVE_CAP:
        raise ValueError(f"cap {cap} exceeds exhaustive cap {EXHAUSTIVE_CAP}")
    for n in range(1, cap + 1):
        witnesses = _scan_modulus(n, k, None)
        if witnesses:
            return n, witnesses[0]
    return None


def stochastic_search(cfg: SearchConfig) -> list[HaightWitness]:
    """The pruned walk of exhaustive_search, in a seeded order and budgeted.

    At each modulus the walk draws its coins from xorshift64* seeded by
    modulus_stream_seed(seed, n) and stops after ``budget`` child
    evaluations, so runs reproduce from (seed, budget, n_range) and the
    merged result does not depend on traversal order.  A budget >= 2^(n-1)
    returns exactly the exhaustive classes at n.  Like exhaustive_search,
    it returns the walk's output unchecked.
    """
    if cfg.mode != "stochastic":
        raise ValueError(f"config mode is {cfg.mode!r}, expected 'stochastic'")
    lo, hi = cfg.n_range
    out: list[HaightWitness] = []
    for n in range(lo, hi + 1):
        rng = Xorshift64Star(modulus_stream_seed(cfg.seed, n))
        out.extend(_scan_modulus(n, cfg.k, cfg.max_set_size, rng, cfg.budget))
    return out
