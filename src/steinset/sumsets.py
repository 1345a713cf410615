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

``sumset`` and its raw-mask form ``sumset_mask`` use the convolution
kernel when m > w*n / F + F with F = CONVOLUTION_FACTOR = 8: the
convolution costs about F rotations of fixed overhead plus one rotation
per F bytes of packed operand, and shift-or costs one rotation per member
of the smaller operand.  The rule is a fit to timings of both kernels on
random operands with |A| = |B| = m (CPython 3.11, 2-vCPU x86-64 VM); the
crossover m* where they tie:

    n      16-64   128   256   512   1024   2048   4096   16384   65536
    m*     11-12   16    30    55    120    700    1300   4500    8000

Below 256 members (w = 1) the crossover is near n/9 plus a fixed ~10
members; from 256 members (w = 2) near n/4, drifting below it past
n = 16384 as Karatsuba multiplication pulls ahead.  Over that grid (n up
to 262144) the rule picks a kernel at most 1.7x slower than the faster
one, and at most 1.35x below n = 65536.  The test suite cross-checks the
two kernels bit for bit.  Empty operands are rejected rather than
propagated: a silently empty sumset usually means an upstream bug.
"""

from __future__ import annotations

from typing import Sequence

from .groups import CyclicSet, EmptySetError, ModulusMismatchError, rotate_mask

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
    """The dispatch rule: convolution when the smaller operand has m > w*n/F + F members."""
    return CONVOLUTION_FACTOR * (m - CONVOLUTION_FACTOR) > _field_width(m) * n


def sumset_mask(a: int, b: int, n: int) -> int:
    """A + B on raw non-empty masks of Z_n, by the kernel ``sumset`` would pick."""
    if _convolution_pays(min(a.bit_count(), b.bit_count()), n):
        return _convolution(a, b, n)
    return _shift_or(a, b, n)


def sumset(a: CyclicSet, b: CyclicSet) -> CyclicSet:
    """A + B, dispatching between the shift-or and convolution kernels."""
    # calls the public kernels rather than sumset_mask, so a profiler or
    # perfbench/tracing.py still sees which kernel ran
    n = _check_operands(a, b)
    if _convolution_pays(min(a.cardinality, b.cardinality), n):
        return sumset_convolution(a, b)
    return sumset_shift_or(a, b)


def iterated_sumset(a: CyclicSet, k: int) -> CyclicSet:
    """k-fold sumset kA by binary exponentiation, exiting early once full.

    Fullness is absorbing: Z_n + B = Z_n for any non-empty B.
    """
    if k < 1:
        raise ValueError(f"fold count must be >= 1, got {k}")
    if a.is_empty():
        raise EmptySetError("iterated sumset of an empty set")
    result: CyclicSet | None = None
    base = a
    while True:
        if k & 1:
            result = base if result is None else sumset(result, base)
            if result.is_full():
                return result
        k >>= 1
        if not k:
            break
        base = sumset(base, base)
        if base.is_full():
            # at least one more summand of `base` is pending, so the total is full
            return base
    assert result is not None
    return result


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
    """plus*A + minus*(-A); the sign-count form of a signed product."""
    if plus < 0 or minus < 0 or plus + minus < 1:
        raise ValueError(f"invalid sign counts ({plus}, {minus})")
    if a.is_empty():
        raise EmptySetError("signed product of an empty set")
    pos = iterated_sumset(a, plus) if plus else None
    neg = iterated_sumset(a.negate(), minus) if minus else None
    if pos is None:
        assert neg is not None
        return neg
    if neg is None:
        return pos
    return sumset(pos, neg)


def pm_product(a: CyclicSet, m: int) -> CyclicSet:
    """m-fold sumset of A u (-A); the union of all length-m signed products."""
    if m < 1:
        raise ValueError(f"fold count must be >= 1, got {m}")
    if a.is_empty():
        raise EmptySetError("pm product of an empty set")
    return iterated_sumset(a.union(a.negate()), m)


def sign_count_classes(m: int) -> list[tuple[int, int]]:
    """The m+1 sign-count classes (p, q) with p + q = m, ordered by descending p.

    Each class stands for every length-m sign vector with p entries equal
    to +1, which all yield the same signed product in an abelian group.
    """
    if m < 1:
        raise ValueError(f"length must be >= 1, got {m}")
    return [(m - q, q) for q in range(m + 1)]
