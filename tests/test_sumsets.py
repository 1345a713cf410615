import random
from itertools import product
from math import gcd

import pytest

from steinset import sumsets
from steinset.groups import CyclicSet, EmptySetError, ModulusMismatchError, rotate_mask
from steinset.sumsets import (
    CONVOLUTION_FACTOR,
    iterated_sumset,
    pm_product,
    sign_count_classes,
    signed_product,
    signed_product_counts,
    sumset,
    sumset_convolution,
    sumset_shift_or,
)

from oracles import (
    mask_of,
    members_of,
    naive_iterated,
    naive_pm,
    naive_pm_union,
    naive_signed,
    naive_sumset,
    random_nonempty_members,
)


def cs(n, members):
    return CyclicSet.from_members(n, members)


def members(a):
    return frozenset(a.members())


def test_sumset_examples():
    a = cs(7, [0, 1, 3])
    assert members(sumset(a, a)) == {0, 1, 2, 3, 4, 6}
    assert sumset(a, cs(7, [0])) == a
    window = cs(5, [4, 0, 1])
    assert sumset(window, window).is_full()


def test_sumset_errors():
    with pytest.raises(ModulusMismatchError):
        sumset(cs(5, [0]), cs(7, [0]))
    with pytest.raises(EmptySetError):
        sumset(cs(5, [0]), CyclicSet.empty(5))
    with pytest.raises(EmptySetError):
        sumset_convolution(CyclicSet.empty(5), cs(5, [0]))
    with pytest.raises(ValueError, match=r"invalid sign counts \(0, 0\)"):
        signed_product_counts(cs(5, [0]), 0, 0)
    with pytest.raises(EmptySetError, match="signed product of an empty set"):
        signed_product_counts(CyclicSet.empty(5), 1, 1)
    with pytest.raises(EmptySetError, match="iterated sumset of an empty set"):
        iterated_sumset(CyclicSet.empty(5), 2)


def test_iterated_examples():
    window7 = cs(7, [6, 0, 1])
    assert iterated_sumset(window7, 3).is_full()
    assert members(iterated_sumset(window7, 2)) == {5, 6, 0, 1, 2}
    assert iterated_sumset(window7, 1) == window7
    for k in (1, 2, 5):
        assert iterated_sumset(CyclicSet.full(6), k) == CyclicSet.full(6)
    with pytest.raises(ValueError):
        iterated_sumset(window7, 0)


def test_signed_examples():
    a = cs(7, [0, 1, 3])
    assert signed_product(a, (1, -1)).is_full()
    assert signed_product(a, (1,)) == a
    squares = cs(7, [1, 2, 4])
    assert members(signed_product(squares, (1, 1))) == {1, 2, 3, 4, 5, 6}
    with pytest.raises(ValueError):
        signed_product(a, ())
    with pytest.raises(ValueError):
        signed_product(a, (1, 0))


def test_pm_examples():
    a = cs(7, [0, 1, 3])
    assert members(pm_product(a, 1)) == {0, 1, 3, 4, 6}
    assert members(pm_product(cs(5, [2]), 2)) == {0, 1, 4}
    sym = cs(9, [8, 0, 1])
    for m in (1, 2, 3):
        assert pm_product(sym, m) == iterated_sumset(sym, m)
    with pytest.raises(ValueError):
        pm_product(a, 0)


def test_sign_count_classes():
    assert sign_count_classes(1) == [(1, 0), (0, 1)]
    assert sign_count_classes(2) == [(2, 0), (1, 1), (0, 2)]
    assert len(sign_count_classes(3)) == 4
    with pytest.raises(ValueError):
        sign_count_classes(0)


def test_kernels_agree_randomized():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 200)
        a = cs(n, random_nonempty_members(rng, n))
        b = cs(n, random_nonempty_members(rng, n))
        assert sumset_shift_or(a, b) == sumset_convolution(a, b)


def test_kernels_commute():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randrange(1, 64)
        a = cs(n, random_nonempty_members(rng, n))
        b = cs(n, random_nonempty_members(rng, n))
        assert sumset(a, b) == sumset(b, a)


def test_sumset_matches_oracle_randomized():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 33)
        a = random_nonempty_members(rng, n)
        b = random_nonempty_members(rng, n)
        assert members(sumset(cs(n, a), cs(n, b))) == naive_sumset(a, b, n)


def test_iterated_matches_oracle_randomized():
    rng = random.Random(6)
    for _ in range(150):
        n = rng.randrange(1, 33)
        k = rng.randrange(1, 5)
        a = random_nonempty_members(rng, n)
        assert members(iterated_sumset(cs(n, a), k)) == naive_iterated(a, k, n)


def test_sign_count_reduction_exhaustive():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randrange(1, 33)
        a = cs(n, random_nonempty_members(rng, n))
        for m in (1, 2, 3, 4):
            for signs in product((1, -1), repeat=m):
                plus = signs.count(1)
                assert signed_product(a, signs) == signed_product_counts(
                    a, plus, m - plus
                )


def test_pm_is_union_of_signed_products():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randrange(1, 33)
        a = random_nonempty_members(rng, n)
        for m in (1, 2, 3, 4):
            assert members(pm_product(cs(n, a), m)) == naive_pm_union(a, m, n)
            assert naive_pm(a, m, n) == naive_pm_union(a, m, n)


def test_signed_matches_oracle_randomized():
    rng = random.Random(10)
    for _ in range(150):
        n = rng.randrange(1, 33)
        m = rng.randrange(1, 5)
        signs = tuple(rng.choice((1, -1)) for _ in range(m))
        a = random_nonempty_members(rng, n)
        assert members(signed_product(cs(n, a), signs)) == naive_signed(a, signs, n)


def test_absorption():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randrange(1, 20)
        a = cs(n, random_nonempty_members(rng, n))
        b = cs(n, random_nonempty_members(rng, n))
        if a.is_full():
            assert sumset(a, b).is_full()
        k = rng.randrange(1, 5)
        if iterated_sumset(a, k).is_full():
            assert iterated_sumset(a, k + 1).is_full()


def _primes_to(limit):
    return [p for p in range(2, limit + 1) if all(p % d for d in range(2, p))]


def test_cauchy_davenport_bound_on_primes():
    rng = random.Random(14)
    primes = _primes_to(61)
    for _ in range(250):
        p = rng.choice(primes)
        a = cs(p, random_nonempty_members(rng, p))
        b = cs(p, random_nonempty_members(rng, p))
        assert sumset(a, b).cardinality >= min(p, a.cardinality + b.cardinality - 1)


def test_convolution_kernel_handles_modulus_one():
    one = CyclicSet.full(1)
    assert sumset_convolution(one, one) == one
    assert sumset_shift_or(one, one) == one


def _both_kernels(a, b):
    return sumset_shift_or(a, b), sumset_convolution(a, b)


@pytest.mark.parametrize("n", [255, 256, 257])
def test_convolution_field_width_on_full_group(n):
    # A = B = Z_n puts min(n, 256)-sized coefficients right at the byte boundary
    full = CyclicSet.full(n)
    assert _both_kernels(full, full) == (full, full)


@pytest.mark.parametrize("size", [255, 256])
def test_convolution_field_width_on_dense_sets(size):
    rng = random.Random(size)
    n = 700
    # an interval reaches the largest coefficient, |A| = |B| = size
    interval = list(range(size))
    scattered = rng.sample(range(n), size)
    for a_mem, b_mem in ((interval, interval), (interval, scattered), (scattered, scattered)):
        a, b = cs(n, a_mem), cs(n, b_mem)
        expected = cs(n, naive_sumset(a_mem, b_mem, n))
        assert _both_kernels(a, b) == (expected, expected)


def test_kernels_on_tiny_moduli_and_aliased_operands():
    for n in (1, 2):
        for ma in range(1, 1 << n):
            for mb in range(1, 1 << n):
                a, b = CyclicSet(n, ma), CyclicSet(n, mb)
                expected = cs(n, naive_sumset(a.members(), b.members(), n))
                assert _both_kernels(a, b) == (expected, expected)
    rng = random.Random(15)
    for n in (1, 2, 7, 300):
        a = cs(n, random_nonempty_members(rng, n))
        expected = cs(n, naive_sumset(a.members(), a.members(), n))
        assert _both_kernels(a, a) == (expected, expected)
        assert sumset(a, a) == expected


# (n, largest m sent to shift-or): m > w*n/F + F with w = 1, 1, 2 bytes
@pytest.mark.parametrize("n,last_shift_or", [(16, 10), (1000, 133), (4097, 1032)])
def test_dispatch_threshold(n, last_shift_or, monkeypatch):
    assert CONVOLUTION_FACTOR == 8
    calls = []
    convolution = sumsets._convolution
    monkeypatch.setattr(
        sumsets,
        "_convolution",
        lambda a, b, n: calls.append((a, b)) or convolution(a, b, n),
    )
    rng = random.Random(n)
    for size, uses_convolution in ((last_shift_or, False), (last_shift_or + 1, True)):
        # these random operands sum to Z_n at m*+1, which the saturation probe
        # shows without the convolution; n = 16 is too small to probe
        a_mem = rng.sample(range(n), size)
        b_mem = rng.sample(range(n), max(size, n // 2))
        calls.clear()
        got = sumset(cs(n, a_mem), cs(n, b_mem))
        assert members(got) == naive_sumset(a_mem, b_mem, n)
        assert bool(calls) == (uses_convolution and n == 16)
    if n == 16:
        return
    # operands inside [0, n/2) never sum to Z_n (n - 1 is missing), so the
    # kernel rule alone picks
    rng = random.Random(-n)
    for size, uses_convolution in ((last_shift_or, False), (last_shift_or + 1, True)):
        a_mem = rng.sample(range(n // 2), size)
        b_mem = rng.sample(range(n // 2), size)
        calls.clear()
        got = sumset(cs(n, a_mem), cs(n, b_mem))
        assert members(got) == naive_sumset(a_mem, b_mem, n)
        assert bool(calls) == uses_convolution


def test_full_results_are_the_shared_full_set():
    n = 300
    full = CyclicSet.full(n)
    pair = cs(n, [0, 1])
    half = cs(n, range(n // 2 + 1))  # |A| > n/2 forces A + A = Z_n
    results = [
        sumset_shift_or(full, pair),
        sumset_convolution(full, pair),
        sumset(half, half),
        iterated_sumset(half, 5),
        signed_product_counts(half, 1, 1),
    ]
    assert all(r is full for r in results)
    assert CyclicSet.full(n) is full
    assert sumset(pair, pair) == cs(n, [0, 1, 2])


def test_signed_product_stops_at_a_full_positive_part(monkeypatch):
    n = 300
    half = cs(n, range(n // 2 + 1))
    negated = []
    monkeypatch.setattr(
        CyclicSet, "negate", lambda self: negated.append(self) or CyclicSet(n, 0)
    )
    assert signed_product_counts(half, 2, 3) is CyclicSet.full(n)
    assert negated == []


SATURATION_MODULI = [33, 64, 1000, 4097, 16384, 65536]


def _first_convolution_size(n):
    """m*+1: the least smaller-operand size the kernel rule sends to the convolution."""
    return next(m for m in range(1, n + 1) if sumsets._convolution_pays(m, n))


def _saturation_cases(n):
    """(label, A, B, A + B) around the saturation probe, as masks of Z_n.

    A + B is worked out from the structure of the family, independently of
    both kernels; None for random pairs, whose reference is the kernels.
    """
    rng = random.Random(n)
    first = min(_first_convolution_size(n), n // 2)
    h = n // 2
    d = next(p for p in range(2, n + 1) if n % p == 0)
    step = next(t for t in range(3, n) if gcd(t, n) == 1)
    full = range(n)
    subgroup = range(0, n, d)
    progression = [(7 + step * i) % n for i in range(h + 1)]
    co_singleton = [r for r in full if r != 5]
    dense = rng.sample(full, h)
    avoid = set((3 - x) % n for x in dense)
    cases = [
        (f"random m={m}", rng.sample(full, m), rng.sample(full, max(m, h)), None)
        for m in (first - 1, first, first + 1)
    ]
    cases += [
        ("random half", dense, rng.sample(full, h), None),
        ("interval", range(h), range(h), range(2 * h - 1)),
        ("interval pair", range(3, 3 + h + 1), range(h + 1), full),
        ("subgroup", subgroup, subgroup, subgroup),
        ("cosets", [x + 1 for x in subgroup], [x + d - 1 for x in subgroup], subgroup),
        ("progression", progression, progression[: h - 1],
         [14 + step * i for i in range(2 * h - 1)]),
        ("co-singleton", co_singleton, co_singleton, full),
        ("co-singleton pair", co_singleton, [0, 1], full),
        ("full", full, dense, full),
        # near misses: A + B lacks exactly one residue
        ("near miss intervals", range(h), range(n - h), range(n - 1)),
        ("near miss random", dense, [r for r in full if r not in avoid],
         [r for r in full if r != 3]),
    ]
    return [
        (label, mask_of(a, n), mask_of(b, n), None if want is None else mask_of(want, n))
        for label, a, b, want in cases
    ]


@pytest.mark.parametrize("n", SATURATION_MODULI)
def test_saturating_dispatch_matches_kernels_and_oracle(n):
    for label, a, b, want in _saturation_cases(n):
        if want is None:
            want = sumsets._convolution(a, b, n)
        got = sumsets.sumset_mask(a, b, n)
        assert got == want, label
        assert sumset(CyclicSet(n, b), CyclicSet(n, a)) == CyclicSet(n, want), label
        # past n = 16384 a kernel call over these operands takes 0.05-1.4 s;
        # the structural results check the dispatcher there
        if n <= 16384:
            assert sumsets._convolution(a, b, n) == want, label
            assert sumsets._shift_or(a, b, n) == want, label
        if n <= 1000:
            assert members_of(want, n) == naive_sumset(
                members_of(a, n), members_of(b, n), n
            ), label


def test_probe_gives_up_early_on_structured_sums(monkeypatch):
    n = 16384
    rotations = []
    monkeypatch.setattr(
        sumsets, "rotate_mask", lambda m, s, n: rotations.append(s) or rotate_mask(m, s, n)
    )
    structured = ("interval", "subgroup", "cosets", "near miss intervals")
    for label, a, b, want in _saturation_cases(n):
        if label in structured:
            rotations.clear()
            assert sumsets.sumset_mask(a, b, n) == want, label
            assert len(rotations) == 5, label


def test_probe_stops_when_the_smaller_operand_runs_out():
    # {0} + (Z_n minus 0) is not full; a probe rotating past the last member
    # of {0} would OR in a shift by -1 and cover the missing residue
    n = 64
    big = ((1 << n) - 1) ^ 1
    assert not sumsets._rotations_cover(1, big, n, 10)
    assert sumsets._rotations_cover(0b11, big, n, 10)


@pytest.mark.parametrize("n", SATURATION_MODULI)
def test_probed_full_result_is_the_shared_full_set(n):
    rng = random.Random(n + 1)
    a = cs(n, rng.sample(range(n), n // 2 + 1))
    b = cs(n, rng.sample(range(n), n // 2 + 1))
    assert sumset(a, b) is CyclicSet.full(n)
    assert sumset(CyclicSet.full(n), a) is CyclicSet.full(n)


def test_saturating_random_operands_skip_the_convolution(monkeypatch):
    n = 65536
    calls = []
    monkeypatch.setattr(
        sumsets, "_convolution", lambda a, b, n: calls.append((a, b)) or 0
    )
    rng = random.Random(3)
    for size in (_first_convolution_size(n), n // 2):
        for _ in range(3):
            a = cs(n, rng.sample(range(n), size))
            b = cs(n, rng.sample(range(n), size))
            assert sumset(a, b) is CyclicSet.full(n)
            assert sumsets.sumset_mask(a.mask, b.mask, n) == (1 << n) - 1
    assert calls == []
