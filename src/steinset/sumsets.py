"""Exact sumset kernels over Z_n.

Two interchangeable kernels compute A + B = {a + b mod n : a in A, b in B}:

* shift-or: OR together copies of the larger operand's bitmask rotated by
  each member of the smaller operand; O(min(|A|,|B|)) mask rotations.
* convolution: multiply byte-packed indicator polynomials using Python's
  big-integer multiplication, then fold coefficient indices mod n and
  threshold.  Packing, lane folding and thresholding are C-level bytes
  operations (extended slices, ``bytes.translate``), so the multiply
  dominates.  Each coefficient gets a field of w = ceil(bitlen(m) / 8)
  bytes with m = min(|A|,|B|).  This is exact: coefficient j counts pairs
  (a, b) with a + b = j, and each a pairs with at most one b, so no
  coefficient exceeds m < 256^w and fields never carry into each other.
  Below 256 members w = 1.

``sumset`` and its raw-mask form ``sumset_mask`` share one dispatch rule,
applied in three steps:

1. Rule.  A full operand gives Z_n at once (Z_n + B = Z_n).  Otherwise
   the convolution kernel is the candidate when m > w*n / F + F with
   F = CONVOLUTION_FACTOR = 8, and shift-or runs otherwise: the
   convolution costs about F rotations of fixed overhead plus one
   rotation per F bytes of packed operand, and shift-or costs one
   rotation per member of the smaller operand.  The rule is a fit to
   timings of both kernels on random operands with |A| = |B| = m
   (CPython 3.11, 2-vCPU x86-64 VM); the crossover m* where they tie:

       n      16-64   128   256   512   1024   2048   4096   16384   65536
       m*     11-12   16    30    55    120    700    1300   4500    8000

   Below 256 members (w = 1) the crossover is near n/9 plus a fixed ~10
   members; from 256 members (w = 2) near n/4, drifting below it past
   n = 16384 as Karatsuba multiplication pulls ahead.  Over that grid (n
   up to 262144) the rule picks a kernel at most 1.7x slower than the
   faster one, and at most 1.35x below n = 65536.
2. Probe.  Before a convolution, shift-or starts on the smallest members
   of the smaller operand and returns Z_n as soon as the rotations cover
   the group.  That is exact, because the union is a subset of A + B.
   It stops after min(m, w*n / (4F), 4*bitlen(n) + 16) rotations, so
   it spends at most about a quarter of the convolution's modelled cost
   and nothing below n = 32, or once the uncovered count has not halved
   once per four rotations since the first.  Random operands of density
   p halve it every ~0.7/p rotations and cover Z_n in about
   log2(n) / log2(1/(1-p)) of them; intervals, subgroups and cosets
   stop at the first check, after five rotations.
3. Convolution, when the probe stops without covering Z_n.

Measured with ``tools/bench_sumset.py`` (median of 9 alternating calls,
same VM; BENCH_saturating_sumset.json), random half-density pairs now
take 0.02 / 0.08 / 0.16 / 0.41 / 1.8 ms at n = 1000 / 4096 / 16384 /
65536 / 262144, 15x to 1900x less than the convolution.  Sums that are
not full (an interval [0, 3n/8), 2Z_n, and [0, (n-1)/2] whose sum misses
one residue) take 0.89x-1.11x their time before the probe.

The products kA, plus*A + minus*(-A) and m(A u -A) share one raw-mask
core, ``kfold_mask`` (doubling on ``sumset_mask``, exiting once full),
which ``haight`` calls too.  Only ``sumset`` calls the public kernels
``sumset_shift_or`` / ``sumset_convolution``, so tools/bench_sumset.py and
perfbench/tracing.py, which wrap them, learn which kernel ran.

The test suite cross-checks the two kernels bit for bit.  Empty operands
are rejected rather than propagated: a silently empty sumset usually
means an upstream bug.
"""

from __future__ import annotations

from typing import Sequence

from .groups import CyclicSet, EmptySetError, ModulusMismatchError, negate_mask, rotate_mask

# Dispatch constant of ``sumset``; see the module docstring for the rule.
CONVOLUTION_FACTOR = 8


def _check_operands(a: CyclicSet, b: CyclicSet) -> int:
    if a.modulus != b.modulus:
        raise ModulusMismatchError(
            f"sumset of sets mod {a.modulus} and mod {b.modulus}"
        )
    if a.is_empty() or b.is_empty():
        raise EmptySetError("sumset of an empty set")
    return a.modulus


def _result(n: int, mask: int) -> CyclicSet:
    """Kernel output; a full result is the shared ``CyclicSet.full(n)``."""
    return CyclicSet.full(n) if mask == (1 << n) - 1 else CyclicSet(n, mask)


def _shift_or(a: int, b: int, n: int) -> int:
    """Shift-or on raw masks: copies of the larger rotated by each member of the smaller."""
    small, big = (a, b) if a.bit_count() <= b.bit_count() else (b, a)
    acc = 0
    while small:
        low = small & -small
        acc |= rotate_mask(big, low.bit_length() - 1, n)
        small ^= low
    return acc


def sumset_shift_or(a: CyclicSet, b: CyclicSet) -> CyclicSet:
    """Shift-or kernel: exact for any moduli, fastest for sparse operands."""
    n = _check_operands(a, b)
    return _result(n, _shift_or(a.mask, b.mask, n))


# bytes.translate tables: ASCII '0'/'1' to byte 0/1, and any byte to '0'/'1'.
_BIT_TO_BYTE = bytes.maketrans(b"01", b"\x00\x01")
_NONZERO_TO_BIT = b"0" + b"1" * 255


def _field_width(m: int) -> int:
    """Bytes per packed coefficient when the smaller operand has m members."""
    return (m.bit_length() + 7) // 8


def _packed(mask: int, n: int, w: int) -> int:
    """Indicator polynomial of ``mask``: coefficient of 256^(w*r) is bit r."""
    bits = format(mask, f"0{n}b")[::-1].encode().translate(_BIT_TO_BYTE)
    buf = bytearray(w * n)
    buf[0::w] = bits
    return int.from_bytes(buf, "little")


def _convolution(a: int, b: int, n: int) -> int:
    """Convolution on raw masks: indicator product via big-int multiply, folded mod n."""
    w = _field_width(min(a.bit_count(), b.bit_count()))
    pa = _packed(a, n, w)
    prod = pa * pa if a == b else pa * _packed(b, n, w)
    buf = prod.to_bytes(2 * w * n, "little")
    lanes = 0
    for i in range(w):
        lanes |= int.from_bytes(buf[i::w], "little")
    bits = lanes.to_bytes(2 * n, "little").translate(_NONZERO_TO_BIT)
    support = int(bits[::-1], 2)  # bit j <=> coefficient j of the product is nonzero
    return (support & ((1 << n) - 1)) | (support >> n)


def sumset_convolution(a: CyclicSet, b: CyclicSet) -> CyclicSet:
    """Convolution kernel: indicator product via big-int multiply, folded mod n."""
    n = _check_operands(a, b)
    return _result(n, _convolution(a.mask, b.mask, n))


def _convolution_pays(m: int, n: int) -> bool:
    """The kernel rule: convolution when the smaller operand has m > w*n/F + F members."""
    return CONVOLUTION_FACTOR * (m - CONVOLUTION_FACTOR) > _field_width(m) * n


# Routes of the dispatch rule ``_route``.
_SHIFT_OR, _CONVOLUTION, _FULL = range(3)
# The saturation probe must halve the uncovered count every _STALL_WINDOW
# rotations on average, or it gives up.
_STALL_WINDOW = 4


def _probe_budget(m: int, n: int) -> int:
    """Rotations the saturation probe may spend: at most a quarter of the
    convolution's modelled cost w*n/F, and 4*bitlen(n) + 16.  The probe
    also stops after the m members of the smaller operand."""
    return min(_field_width(m) * n // (4 * CONVOLUTION_FACTOR), 4 * n.bit_length() + 16)


def _rotations_cover(small: int, big: int, n: int, budget: int) -> bool:
    """Whether ``big`` rotated by the smallest members of ``small`` covers Z_n.

    True proves A + B = Z_n, since the union is a subset of A + B.  False
    proves nothing: the probe stops after ``budget`` rotations, or once
    the uncovered count left by the first rotation has not halved once per
    _STALL_WINDOW rotations since (intervals, subgroups and cosets stop at
    the first check), or once ``small`` has no members left.
    """
    full = (1 << n) - 1
    acc = 0
    for i in range(budget):
        if not small:
            return False
        low = small & -small
        acc |= rotate_mask(big, low.bit_length() - 1, n)
        if acc == full:
            return True
        small ^= low
        if i % _STALL_WINDOW == 0:
            left = n - acc.bit_count()
            if not i:
                bound = left
            else:
                bound >>= 1
                if left > bound:
                    return False
    return False


def _route(a: int, b: int, n: int) -> int:
    """The dispatch rule on raw non-empty masks: _FULL when A + B = Z_n is
    already known, else the kernel that computes it."""
    ca, cb = a.bit_count(), b.bit_count()
    if ca == n or cb == n:
        return _FULL
    small, big, m = (a, b, ca) if ca <= cb else (b, a, cb)
    if not _convolution_pays(m, n):
        return _SHIFT_OR
    if _rotations_cover(small, big, n, _probe_budget(m, n)):
        return _FULL
    return _CONVOLUTION


def sumset_mask(a: int, b: int, n: int) -> int:
    """A + B on raw non-empty masks of Z_n, routed as ``sumset`` routes it."""
    route = _route(a, b, n)
    if route == _FULL:
        return (1 << n) - 1
    if route == _CONVOLUTION:
        return _convolution(a, b, n)
    return _shift_or(a, b, n)


def sumset(a: CyclicSet, b: CyclicSet) -> CyclicSet:
    """A + B: Z_n when a full operand or the saturation probe shows it, else
    the shift-or or convolution kernel."""
    # calls the public kernels rather than sumset_mask, so a profiler or
    # perfbench/tracing.py still sees which kernel ran
    n = _check_operands(a, b)
    route = _route(a.mask, b.mask, n)
    if route == _FULL:
        return CyclicSet.full(n)
    if route == _CONVOLUTION:
        return sumset_convolution(a, b)
    return sumset_shift_or(a, b)


def kfold_mask(a: int, k: int, n: int) -> int:
    """kA on a raw non-empty mask of Z_n (k >= 1) by doubling, exiting early once full."""
    full = (1 << n) - 1
    out = a
    for bit in bin(k)[3:]:  # after the leading 1: jA -> 2jA, plus A on a set bit
        out = sumset_mask(out, out, n)
        if bit == "1":
            out = sumset_mask(out, a, n)
        if out == full:
            break  # Z_n + B = Z_n
    return out


def iterated_sumset(a: CyclicSet, k: int) -> CyclicSet:
    """k-fold sumset kA, exiting early once full."""
    if k < 1:
        raise ValueError(f"fold count must be >= 1, got {k}")
    if a.is_empty():
        raise EmptySetError("iterated sumset of an empty set")
    return _result(a.modulus, kfold_mask(a.mask, k, a.modulus))


def _check_signs(signs: Sequence[int]) -> None:
    if len(signs) < 1:
        raise ValueError("sign vector must have length >= 1")
    for s in signs:
        if s not in (1, -1):
            raise ValueError(f"sign entries must be +1 or -1, got {s}")


def signed_product(a: CyclicSet, signs: Sequence[int]) -> CyclicSet:
    """eps_1*A + ... + eps_m*A where +1 contributes A and -1 contributes -A.

    Only the counts of +1 and -1 entries matter in an abelian group.
    """
    _check_signs(signs)
    plus = sum(1 for s in signs if s == 1)
    return signed_product_counts(a, plus, len(signs) - plus)


def signed_product_counts(a: CyclicSet, plus: int, minus: int) -> CyclicSet:
    """plus*A + minus*(-A); the sign-count form of a signed product.

    Fullness is absorbing, so when plus*A is already Z_n it is the answer
    and neither -A nor minus*(-A) is built.
    """
    if plus < 0 or minus < 0 or plus + minus < 1:
        raise ValueError(f"invalid sign counts ({plus}, {minus})")
    if a.is_empty():
        raise EmptySetError("signed product of an empty set")
    n = a.modulus
    out = kfold_mask(a.mask, plus, n) if plus else 0
    if minus and out != (1 << n) - 1:
        neg = kfold_mask(negate_mask(a.mask, n), minus, n)
        out = sumset_mask(out, neg, n) if plus else neg
    return _result(n, out)


def pm_product(a: CyclicSet, m: int) -> CyclicSet:
    """m-fold sumset of A u (-A); the union of all length-m signed products."""
    if m < 1:
        raise ValueError(f"fold count must be >= 1, got {m}")
    if a.is_empty():
        raise EmptySetError("pm product of an empty set")
    n = a.modulus
    return _result(n, kfold_mask(a.mask | negate_mask(a.mask, n), m, n))


def sign_count_classes(m: int) -> list[tuple[int, int]]:
    """The m+1 sign-count classes (p, q) with p + q = m, ordered by descending p.

    Each class stands for every length-m sign vector with p entries equal
    to +1, which all yield the same signed product in an abelian group.
    """
    if m < 1:
        raise ValueError(f"length must be >= 1, got {m}")
    return [(m - q, q) for q in range(m + 1)]
