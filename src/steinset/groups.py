"""Subsets of cyclic groups Z_n as immutable membership bitmasks.

The cyclic group of order n is taken additively: residues 0..n-1 under
addition mod n.  A subset is one bit per residue, so translation, negation
and affine images are cheap word-parallel operations on Python ints.

Text literal for sets: ``"n:{a,b,c}"``, e.g. ``"7:{0,1,3}"``.
"""

from __future__ import annotations

import re
import weakref
from functools import lru_cache
from itertools import compress, count
from math import gcd
from typing import Iterable

from .values import Value, set_field

# Guard against accidental huge allocations; one bit per residue.
MAX_MODULUS = 1 << 20

# Above STACK_MAX_MODULUS canonical_form builds a table of phi(n)/2 stacked
# unit images per call (see _UnitStack.of), so it gets its own cap.  At
# n = 512 it takes 0.42 / 1.7 / 6.2 ms on random sets of 8 / 32 / 256 members
# (CPython 3.11, 2-vCPU x86-64 VM, BENCH_label_windows.json).
CANONICAL_MAX_MODULUS = 512

# largest_gap_images and canonical_mask read a table of stacked unit images
# (_UnitStack) per modulus; tables are kept up to this modulus and built per
# call above it.  A table holds one int per residue met; with every residue
# met at every modulus up to 64 they take 0.56 MB, and up to 80 they would
# take 1.2 MB.
STACK_MAX_MODULUS = 64
_STACKS: dict[int, "_UnitStack"] = {}

_LITERAL_RE = re.compile(r"^\s*(\d+)\s*:\s*\{([^{}]*)\}\s*$")

# Z_n per modulus, shared while anything holds it.  Full results are common
# (fullness is absorbing), so callers that keep many results pay for one
# mask per modulus.  Weak references keep the masks from outliving their
# users; a dead entry costs one weak reference per modulus ever used.
_FULL_SETS: dict[int, weakref.ref] = {}

# bytes.translate tables: byte 0/1 to ASCII '0'/'1' and back, and each byte's bits reversed
_BYTE_TO_DIGIT = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_TO_BYTE = bytes.maketrans(b"01", b"\x00\x01")
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


class ModulusMismatchError(ValueError):
    """Operands live in different cyclic groups."""


class EmptySetError(ValueError):
    """The operation requires a non-empty set."""


def _packed_mask(n: int, members: Iterable[int]) -> int:
    """Mask of the residues of ``members`` mod n, in time linear in n plus their number.

    ``mask |= 1 << a`` copies the whole mask per member, which is quadratic
    for dense sets at large n; one byte per residue, read as a base-2
    numeral, is not.
    """
    if not 1 <= n <= MAX_MODULUS:  # the message CyclicSet gives, before a huge allocation
        raise ValueError(f"modulus must be in [1, {MAX_MODULUS}], got {n}")
    bits = bytearray(n)
    for a in members:
        bits[a % n] = 1
    bits.reverse()  # residue n - 1 first: the most significant digit
    return int(bits.translate(_BYTE_TO_DIGIT), 2)


def rotate_mask(mask: int, shift: int, n: int) -> int:
    """Rotate an n-bit mask left by ``shift``: adds shift to every residue."""
    shift %= n
    if shift == 0:
        return mask
    return ((mask << shift) | (mask >> (n - shift))) & ((1 << n) - 1)


def _mask_members(mask: int) -> tuple[int, ...]:
    """Set bits of ``mask`` in increasing order.

    Clearing the lowest bit copies the whole mask, so that loop is quadratic
    on dense masks; a scan of the binary numeral is linear but costs per bit.
    Per member the loop takes about 0.2 us plus 0.1 ns per bit, and the scan
    about 25 ns per bit (CPython 3.11, x86-64); the cheaper one runs.
    """
    n = mask.bit_length()
    if mask.bit_count() * (n + 2000) > 250 * (n + 48):
        # via a list: a tuple grown from the iterator itself left the
        # allocator holding about 3 KB more per perfbench search pass
        return tuple([*compress(count(), format(mask, "b").encode()[::-1].translate(_DIGIT_TO_BYTE))])
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _reverse_bits(mask: int, width: int) -> int:
    """``mask``, of at most ceil(width/8) bytes, with bit r moved to width - 1 - r
    (bits from ``width`` up are dropped)."""
    nbytes = (width + 7) >> 3
    rev = int.from_bytes(mask.to_bytes(nbytes, "little").translate(_REVERSED_BYTES), "big")
    return rev >> (8 * nbytes - width)


def negate_mask(mask: int, n: int) -> int:
    """Mask of -A = {-a mod n : a in A}."""
    # bit reversal maps r to n-1-r; rotating by one then gives n-r mod n
    return rotate_mask(_reverse_bits(mask, n), 1, n)


def negation_shift(mask: int, n: int) -> tuple[int, int] | None:
    """(t, p) with -A = A + s exactly for s = t mod p, p the least period
    of A; None if -A is no translate of A.  O(n): read from residue n - 1,
    A's bits reversed are n - 1 - A, and their doubling's windows are A + j."""
    bits = format(mask, f"0{n}b")
    if (j := (bits + bits).find(bits[::-1])) < 0:
        return None
    p = (bits + bits).find(bits, 1)
    return (j + 1) % p, p


class _UnitStack:
    """Stacked unit images of the residues of Z_n, one int per residue met.

    Field i of the ``width``-bit fields belongs to the i-th unit u <= n/2
    and holds u*a in row a, so OR-ing the rows of A's members gives every
    u*A at once.  A field has room for the image, a copy of it n bits
    higher (so every cyclic gap is a run of zeros and every rotation of
    u*A an n-bit window) and guard bits; ``zeros`` has the 2n image and
    copy bits of every field set.  A row is built from ``bits``, one
    field's x per residue x, when a call first meets its residue.
    """

    __slots__ = ("units", "width", "zeros", "bits", "rows")

    @classmethod
    def of(cls, n: int) -> "_UnitStack":
        """The table of Z_n: kept in _STACKS up to STACK_MAX_MODULUS, else built for the call."""
        stack = _STACKS.get(n) or cls(n)
        if n <= STACK_MAX_MODULUS:
            _STACKS[n] = stack
        return stack

    def __init__(self, n: int) -> None:
        self.units = [u for u in units(n) if 2 * u <= n]
        nbytes = (2 * n + 8) >> 3  # at least one guard bit
        self.width = 8 * nbytes
        self.zeros = int.from_bytes(((1 << 2 * n) - 1).to_bytes(nbytes, "little") * len(self.units), "little")
        self.bits = [(1 << x).to_bytes(nbytes, "little") for x in range(n)]
        self.rows: list[int | None] = [None] * n

    def images(self, members: tuple[int, ...], n: int) -> int:
        """D: the fields of every u*A for A = members, each with its copy."""
        rows, bits, units = self.rows, self.bits, self.units
        out = 0
        for a in members:
            if (row := rows[a]) is None:
                row = int.from_bytes(b"".join([bits[u * a % n] for u in units]), "little")
                if n <= STACK_MAX_MODULUS:  # a table built per call keeps no row
                    rows[a] = row
            out |= row
        return out | out << n


def _longest_runs(z: int) -> tuple[int, int]:
    """(L, starts) for z != 0: L the longest run of set bits, starts the bits that begin one.

    runs[j] holds the bits that begin a run of at least 2^j set bits; a
    binary descent from the longest power of two then extends the length.
    """
    runs = [z]
    length = 1
    while nxt := runs[-1] & (runs[-1] >> length):
        runs.append(nxt)
        length <<= 1
    starts = runs.pop()
    step = length
    while runs:
        step >>= 1
        longer = starts & (runs.pop() >> length)
        if longer:
            starts = longer
            length += step
    return length, starts


def largest_gap_images(mask: int, n: int) -> list[int]:
    """Masks of the affine images of A through 0 whose wrap-around gap is largest.

    The image v*A + c through 0 has n - max as a largest gap exactly when
    it rotates a member just after a largest gap of v*A to 0, for v = u or
    -u of some unit u <= n/2.  These are the masks of A's class that the
    exhaustive witness walk can reach.  In each field of the stacked
    images D (_UnitStack.images) the longest zero runs, of g - 1 zeros for
    the largest gap g of u*A, that end at bits n..2n-1 end at the copy of
    each member b after such a gap.  The image for u is D's n-bit window
    at b; the one for -u, which puts b - g at 0, is a window of D's bit
    reversal.  A must be non-empty; a mask may repeat.
    """
    full = (1 << n) - 1
    if mask == full:
        return [full]
    stack = _UnitStack.of(n)
    doubled = stack.images(_mask_members(mask), n)
    gaps = doubled ^ stack.zeros
    w, window = stack.width, (1 << 2 * n) - 1
    top = w * len(stack.units)
    mirror = _reverse_bits(doubled, top)
    out = []
    for shift in range(0, top, w):
        run, starts = _longest_runs(gaps >> shift & window)
        low = top - shift - 2 * n  # the field's bit 2n - 1, in the mirror
        for b in _mask_members(starts >> (n - run) & full):
            out += doubled >> (shift + b) & full, mirror >> (low + (run - b) % n) & full
    return out


def canonical_mask(mask: int, n: int) -> int:
    """The least mask of an affine image of A (A non-empty).

    Rotating an image down by its least member shrinks it, so the least
    image contains 0.  An image through 0 that rotates the member b of u*A
    to 0 has its top element at n - g, for g the gap of u*A before b, and
    masks compare from the top bit.  So the least image starts just after
    a gap g that is largest over all units: b for u, and for -u the member
    b - g before the gap.  One longest zero run over all fields of the
    stacked images D finds g and every such b; the images are windows of
    D and of its fields' bit reversals (see largest_gap_images).
    """
    full = (1 << n) - 1
    if mask == full:
        return full
    stack = _UnitStack.of(n)
    doubled = stack.images(_mask_members(mask), n)
    # a run of g - 1 zeros ends at b, at its copy b + n or, for b = 0, at the guard 2n
    run, starts = _longest_runs(doubled ^ stack.zeros)
    w = stack.width
    best, field = full, -1
    for x in _mask_members(starts):  # fields in increasing order
        i, b = divmod(x + run, w)
        if i != field:  # reverse only the fields that hold a largest gap
            field, mirror = i, _reverse_bits(doubled >> i * w & (1 << w) - 1, w)
        b %= n
        best = min(best, doubled >> (i * w + b) & full, mirror >> (w - 2 * n + (run - b) % n) & full)
    return best


@lru_cache(maxsize=64)  # a unit stack built per call above STACK_MAX_MODULUS reads them
def units(n: int) -> tuple[int, ...]:
    """Residues u with gcd(u, n) = 1, i.e. the multiplicative units of Z_n."""
    return tuple(u for u in range(n) if gcd(u, n) == 1)


class AffineMap(Value):
    """Bijection x -> unit*x + shift (mod modulus); requires gcd(unit, n) = 1."""

    __slots__ = ("unit", "shift", "modulus")

    def __init__(self, unit: int, shift: int, modulus: int) -> None:
        set_field(self, "unit", unit)
        set_field(self, "shift", shift)
        set_field(self, "modulus", modulus)
        n = modulus
        if n < 1:
            raise ValueError(f"modulus must be positive, got {n}")
        if not (0 <= self.unit < n and 0 <= self.shift < n):
            raise ValueError(f"unit and shift must be residues mod {n}")
        if gcd(self.unit, n) != 1:
            raise ValueError(f"unit {self.unit} is not invertible mod {n}")

    def __call__(self, x: int) -> int:
        return (self.unit * x + self.shift) % self.modulus


class CyclicSet(Value):
    """A subset of Z_n: ``modulus`` n and a membership bitmask (bit r <=> r in A)."""

    __slots__ = ("modulus", "mask", "__weakref__")

    def __init__(self, modulus: int, mask: int) -> None:
        set_field(self, "modulus", modulus)
        set_field(self, "mask", mask)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validation; a class attribute that ``__init__`` looks up on each call."""
        if not 1 <= self.modulus <= MAX_MODULUS:
            raise ValueError(
                f"modulus must be in [1, {MAX_MODULUS}], got {self.modulus}"
            )
        if not 0 <= self.mask < (1 << self.modulus):
            raise ValueError(f"mask 0x{self.mask:x} out of range for modulus {self.modulus}")

    @classmethod
    def from_members(cls, modulus: int, members: Iterable[int]) -> "CyclicSet":
        """Build from residues; values are reduced mod ``modulus``."""
        return cls(modulus, _packed_mask(modulus, members))

    @classmethod
    def full(cls, modulus: int) -> "CyclicSet":
        """Z_n; one shared instance per modulus while any caller holds it."""
        ref = _FULL_SETS.get(modulus)
        full = ref() if ref is not None else None
        if full is None:
            full = cls(modulus, (1 << modulus) - 1)
            _FULL_SETS[modulus] = weakref.ref(full)
        return full

    @classmethod
    def empty(cls, modulus: int) -> "CyclicSet":
        return cls(modulus, 0)

    @classmethod
    def parse(cls, text: str) -> "CyclicSet":
        """Parse a set literal ``"n:{a,b,c}"``; residues must lie in [0, n)."""
        m = _LITERAL_RE.match(text)
        if not m:
            raise ValueError(f"malformed set literal: {text!r}")
        n = int(m.group(1))
        body = m.group(2).strip()
        residues = []
        if body:
            for tok in body.split(","):
                a = int(tok)
                if not 0 <= a < n:
                    raise ValueError(f"residue {a} out of range for modulus {n}")
                residues.append(a)
        return cls(n, _packed_mask(n, residues))

    def to_literal(self) -> str:
        return f"{self.modulus}:{{{','.join(str(a) for a in self.members())}}}"

    def __str__(self) -> str:
        return self.to_literal()

    def members(self) -> tuple[int, ...]:
        return _mask_members(self.mask)

    def __contains__(self, residue: int) -> bool:
        return bool(self.mask >> (residue % self.modulus) & 1)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def is_empty(self) -> bool:
        return self.mask == 0

    def is_full(self) -> bool:
        return self.mask == (1 << self.modulus) - 1

    def deficiency(self) -> list[int]:
        """Sorted residues missing from the set."""
        return list(_mask_members(self.mask ^ ((1 << self.modulus) - 1)))

    def translate(self, shift: int) -> "CyclicSet":
        return CyclicSet(self.modulus, rotate_mask(self.mask, shift, self.modulus))

    def negate(self) -> "CyclicSet":
        """{-a mod n : a in A}; an involution."""
        return CyclicSet(self.modulus, negate_mask(self.mask, self.modulus))

    def affine_apply(self, f: AffineMap) -> "CyclicSet":
        """Pointwise image under f; cardinality is preserved (f is a bijection)."""
        if f.modulus != self.modulus:
            raise ModulusMismatchError(
                f"affine map mod {f.modulus} applied to set mod {self.modulus}"
            )
        u, c = f.unit, f.shift
        return CyclicSet(self.modulus, _packed_mask(self.modulus, [u * a + c for a in self.members()]))

    def union(self, other: "CyclicSet") -> "CyclicSet":
        if other.modulus != self.modulus:
            raise ModulusMismatchError(
                f"union of sets mod {self.modulus} and mod {other.modulus}"
            )
        return CyclicSet(self.modulus, self.mask | other.mask)

    def symmetry_center(self) -> int | None:
        """Smallest c with A = {2c - a : a in A}, or None if there is none.  O(n)."""
        if not self.mask:
            raise EmptySetError("symmetry center of the empty set is undefined")
        if (shift := negation_shift(self.mask, self.modulus)) is None:
            return None
        t, p = shift  # -A = A - 2c: 2c = -t mod p, and (p + 1)/2 halves mod an odd p
        return -t * (p + 1) // 2 % p if p % 2 else None if t % 2 else -t % p // 2

    def canonical_form(self) -> "CyclicSet":
        """Least representative of the orbit under all affine maps of Z_n.

        "Least" compares bitmasks as integers (bit r <=> residue r), so
        affinely equivalent sets share one canonical form and distinct
        orbits never collide.  It starts just after a largest cyclic gap of
        some unit multiple u*A (see canonical_mask).
        """
        n = self.modulus
        if n > CANONICAL_MAX_MODULUS:
            raise ValueError(
                f"canonical_form capped at modulus {CANONICAL_MAX_MODULUS}, got {n}"
            )
        if n == 1 or self.mask == 0 or self.is_full():
            return self
        return CyclicSet(n, canonical_mask(self.mask, n))
