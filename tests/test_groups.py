import random
import sys
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinset import groups
from steinset.groups import (
    CANONICAL_MAX_MODULUS,
    AffineMap,
    CyclicSet,
    EmptySetError,
    MAX_MODULUS,
    ModulusMismatchError,
    canonical_mask,
    largest_gap_images,
    negation_shift,
    rotate_mask,
    units,
)

from oracles import (
    affine_images_through_zero,
    mask_of,
    members_of,
    naive_affine_image,
    naive_mask,
    naive_canonical_mask,
    naive_negate,
    naive_negation_shifts,
    naive_orbit,
    naive_symmetry_center,
    periodic_members,
    random_nonempty_members,
    random_reflected_members,
    random_symmetric_members,
)

cyclic_sets = st.integers(min_value=1, max_value=24).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << n) - 1).map(
        lambda m: CyclicSet(n, m)
    )
)
nonempty_sets = st.integers(min_value=1, max_value=24).flatmap(
    lambda n: st.integers(min_value=1, max_value=(1 << n) - 1).map(
        lambda m: CyclicSet(n, m)
    )
)


def test_members_and_mask_round_trip():
    a = CyclicSet.from_members(7, [3, 0, 1])
    assert a.members() == (0, 1, 3)
    assert a.mask == 0b1011
    assert 3 in a and 2 not in a
    assert a.cardinality == 3


def test_from_members_reduces_mod_n():
    assert CyclicSet.from_members(5, [-1, 0, 1]) == CyclicSet.from_members(5, [4, 0, 1])


def test_from_members_and_parse_match_a_naive_per_bit_build():
    rng = random.Random(65536)
    cases = [(1, []), (1, [0, 5]), (7, [-1, 13, 3, 3]), (8, range(8)), (9, range(-20, 20))]
    for n in (2, 63, 64, 65, 1000, 4099):
        for size in (0, 1, n // 3, n):
            cases.append((n, rng.sample(range(n), size)))
    cases.append((65536, rng.sample(range(65536), 32768)))  # dense at large n
    cases.append((MAX_MODULUS, [MAX_MODULUS - 1, 0, -2]))
    for n, members in cases:
        members = list(members)
        want = naive_mask(members, n)
        assert CyclicSet.from_members(n, members).mask == want, n
        residues = sorted({a % n for a in members})
        assert CyclicSet.parse(f"{n}:{{{','.join(map(str, residues))}}}").mask == want, n


def test_from_members_and_parse_refuse_bad_input():
    for build in (
        lambda: CyclicSet.from_members(MAX_MODULUS + 1, [0]),
        lambda: CyclicSet.from_members(0, [0]),
        lambda: CyclicSet.parse(f"{MAX_MODULUS + 1}:{{0}}"),
        lambda: CyclicSet.parse("0:{}"),
    ):
        with pytest.raises(ValueError, match=r"modulus must be in \[1, "):
            build()
    for build in (
        lambda: CyclicSet.parse("5:{1,5}"),
        lambda: CyclicSet.parse("5:{1,x}"),
    ):
        with pytest.raises(ValueError):
            build()


def test_validation():
    with pytest.raises(ValueError):
        CyclicSet(0, 0)
    with pytest.raises(ValueError):
        CyclicSet(3, 1 << 3)
    with pytest.raises(ValueError):
        AffineMap(2, 0, 4)  # gcd(2, 4) != 1
    with pytest.raises(ValueError):
        AffineMap(1, 5, 4)


def test_parse_and_literal():
    a = CyclicSet.parse("7:{0,1,3}")
    assert a == CyclicSet.from_members(7, [0, 1, 3])
    assert a.to_literal() == "7:{0,1,3}"
    assert CyclicSet.parse("4:{}").is_empty()
    with pytest.raises(ValueError):
        CyclicSet.parse("7:{7}")
    with pytest.raises(ValueError):
        CyclicSet.parse("7:0,1")
    with pytest.raises(ValueError):
        CyclicSet.parse("0:{}")


def test_negate_examples():
    assert CyclicSet.from_members(5, [1]).negate() == CyclicSet.from_members(5, [4])
    assert CyclicSet.from_members(7, [0, 1, 3]).negate() == CyclicSet.from_members(
        7, [0, 4, 6]
    )
    assert CyclicSet.full(6).negate() == CyclicSet.full(6)


def test_negate_edge_cases_match_oracle():
    rng = random.Random(21)
    sets = [CyclicSet.empty(9), CyclicSet.full(9), CyclicSet.empty(1), CyclicSet.full(1)]
    for _ in range(200):
        n = rng.randrange(1, 300)
        sets.append(CyclicSet(n, rng.randrange(1 << n)))
    big = rng.sample(range(MAX_MODULUS), 500) + [0, 1, MAX_MODULUS - 1]
    sets.append(CyclicSet.from_members(MAX_MODULUS, big))
    for a in sets:
        assert set(a.negate().members()) == naive_negate(set(a.members()), a.modulus)


def test_affine_examples():
    a = CyclicSet.from_members(7, [0, 1, 3])
    assert a.affine_apply(AffineMap(2, 0, 7)) == CyclicSet.from_members(7, [0, 2, 6])
    assert a.affine_apply(AffineMap(1, 0, 7)) == a
    b = CyclicSet.from_members(4, [0, 1])
    assert b.affine_apply(AffineMap(3, 1, 4)) == CyclicSet.from_members(4, [0, 1])
    with pytest.raises(ModulusMismatchError):
        a.affine_apply(AffineMap(1, 0, 5))


def test_symmetry_center_examples():
    for n in (3, 5, 8, 11):
        window = CyclicSet.from_members(n, [n - 1, 0, 1])
        assert window.symmetry_center() == 0
    assert CyclicSet.from_members(7, [0, 1, 3]).symmetry_center() is None
    assert CyclicSet.full(5).symmetry_center() == 0
    with pytest.raises(EmptySetError):
        CyclicSet.empty(4).symmetry_center()


def test_symmetry_center_matches_oracle():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randrange(1, 16)
        members = random_nonempty_members(rng, n)
        got = CyclicSet.from_members(n, members).symmetry_center()
        assert got == naive_symmetry_center(members, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 10, 31, 64, 1009, 4096, 1 << 14, (1 << 14) - 1])
def test_symmetry_center_matches_oracle_up_to_n_2_to_the_14(n):
    # symmetric sets, the same with one member gone, and random sets; at even
    # n a center c has a twin c + n/2 (2c is the same mod n), the least is kept,
    # and translating by n/2 swaps the two, so the least center stays c
    rng = random.Random(n)
    size = min(n, 24)
    for _ in range(6):
        symmetric = random_symmetric_members(rng, n) if n <= 16 else frozenset(
            x for a in rng.sample(range(n), size // 2) for x in (a, (2 * n - a) % n)
        )
        centered = CyclicSet.from_members(n, symmetric).translate(rng.randrange(n))
        members = centered.members()
        for case in (members, members[1:], rng.sample(range(n), rng.randint(1, size))):
            if not case:
                continue
            got = CyclicSet.from_members(n, case).symmetry_center()
            assert got == naive_symmetry_center(case, n)
        c = centered.symmetry_center()
        assert c is not None
        if n % 2 == 0:
            assert c < n // 2
            twin = centered.translate(n // 2)
            assert twin.symmetry_center() == c == naive_symmetry_center(twin.members(), n)
    # unions of cosets of dZ_n, of a period p dividing d < n (odd p at n = 9,
    # 10 and 2^14 - 1, even p at n = 4, 10, 64 and the powers of two above):
    # a coset, random cosets, and the cosets through H | (t - H) mod d
    for d in (d for d in range(1, n) if n % d == 0 and n // d <= size):
        count = size // (n // d)
        half = rng.sample(range(d), rng.randint(1, max(1, count // 2)))
        t = rng.randrange(d)
        for base in ([rng.randrange(d)], rng.sample(range(d), rng.randint(1, min(d, count))),
                     half + [t - x for x in half]):
            case = periodic_members(base, d, n)
            assert CyclicSet.from_members(n, case).symmetry_center() == naive_symmetry_center(case, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 10, 12, 16, 30, 48])
def test_negation_shift_matches_the_shift_oracle(n):
    # -A = A + s exactly for s = t mod p with t < p, or for no s: on the empty
    # and the full set, random and symmetric sets, H | (t - H) for odd t (no
    # center at even n), a coset of dZ_n and unions of its cosets
    rng = random.Random(n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    cases = [(), range(n)]
    for _ in range(30):
        d = rng.choice(divisors)
        cases += [
            random_nonempty_members(rng, n),
            random_symmetric_members(rng, n),
            random_reflected_members(rng, n, rng.randrange(n) | 1),
            periodic_members([rng.randrange(d)], d, n),
            periodic_members(random_nonempty_members(rng, d), d, n),
            periodic_members(random_reflected_members(rng, d, rng.randrange(d)), d, n),
        ]
    for case in cases:
        shifts = naive_negation_shifts(case, n)
        got = negation_shift(naive_mask(case, n), n)
        if not shifts:
            assert got is None, sorted(case)
            continue
        t, p = got
        assert t < p and [s for s in range(n) if s % p == t] == shifts, sorted(case)


def test_canonical_examples():
    for n in (3, 5, 9):
        single = CyclicSet.from_members(n, [2 % n])
        assert single.canonical_form() == CyclicSet.from_members(n, [0])
    a = CyclicSet.from_members(7, [0, 1, 3])
    b = CyclicSet.from_members(7, [0, 2, 6])
    assert a.canonical_form() == b.canonical_form()
    assert a.canonical_form().mask == 0b1011  # {0,1,3} is its own class minimum
    assert CyclicSet.full(9).canonical_form() == CyclicSet.full(9)


def test_canonical_matches_orbit_minimum():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 13)
        members = random_nonempty_members(rng, n)
        got = CyclicSet.from_members(n, members).canonical_form()
        assert got.mask == naive_canonical_mask(members, n)


def test_canonical_matches_orbit_minimum_up_to_64():
    # many units (phi(60) = 16, phi(64) = 32) and the extreme cardinalities
    rng = random.Random(64)
    cases = []
    for n in (60, 64) + tuple(rng.randrange(13, 65) for _ in range(20)):
        full = frozenset(range(n))
        x = rng.randrange(n)
        cases.append((n, frozenset([x])))
        cases.append((n, full - {x}))
        for _ in range(3):
            cases.append((n, frozenset(rng.sample(range(n), rng.randrange(2, n - 1)))))
    for n, members in cases:
        got = CyclicSet.from_members(n, members).canonical_form()
        assert got.mask == naive_canonical_mask(members, n), (n, sorted(members))


def _tie_heavy_sets(rng):
    """Sets whose unit multiples have many equal largest gaps."""
    for n in (12, 18, 24, 30, 64):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            for c in {0, 1, d - 1}:
                coset = frozenset(range(c % d, n, d))  # dZ_n + c
                yield n, coset
                if len(coset) < n:
                    yield n, frozenset(range(n)) - coset
    for n in (20, 36, 49, 60):
        for step in (1, 2, 3, 5, n // 2 - 1):
            for length in (2, 3, n // 3, n // 2):
                start = rng.randrange(n)
                yield n, frozenset((start + j * step) % n for j in range(length))
        for _ in range(6):
            yield n, random_symmetric_members(rng, n)
        for x in (0, rng.randrange(n)):
            yield n, frozenset([x])
            yield n, frozenset(range(n)) - {x}


def test_canonical_mask_matches_orbit_minimum_on_ties():
    rng = random.Random(77)
    for n, members in _tie_heavy_sets(rng):
        want = naive_canonical_mask(members, n)
        assert canonical_mask(mask_of(members, n), n) == want, (n, sorted(members))
        assert min(largest_gap_images(mask_of(members, n), n)) == want
        assert CyclicSet.from_members(n, members).canonical_form().mask == want


def test_canonical_mask_matches_images_through_zero_up_to_512():
    rng = random.Random(512)
    for n in (128, 256, 512):
        for size in (1, 2, 7, n // 8, n // 2, n - 3, n):
            mask = mask_of(rng.sample(range(n), size), n)
            assert canonical_mask(mask, n) == min(affine_images_through_zero(mask, n)), (n, size)


def test_canonical_mask_is_the_least_largest_gap_image():
    # both read the stacked unit images, so this checks only that they
    # agree; the naive oracles check each of them on its own
    rng = random.Random(4064)
    cases = []
    for _ in range(1500):
        n = rng.randrange(1, 65)
        cases.append((n, rng.randrange(1, 1 << n)))
        cases.append((n, mask_of(rng.sample(range(n), rng.randrange(1, min(n, 4) + 1)), n)))
    for n in (60, 64, 101, 120, 127):
        for size in (1, 2, 3, 7, n // 4, n // 2, n - 1, n):
            for _ in range(4):
                cases.append((n, mask_of(rng.sample(range(n), size), n)))
    for n, mask in cases:
        assert canonical_mask(mask, n) == min(largest_gap_images(mask, n)), (n, mask)


def test_unit_stack_tables_stay_under_a_megabyte():
    def table_bytes(stack):
        rows = [r for r in stack.rows if r is not None]
        parts = [stack.units, stack.zeros, stack.bits, stack.rows, *stack.bits, *rows]
        return sys.getsizeof(stack) + sum(map(sys.getsizeof, parts))

    groups._STACKS.clear()
    try:
        for n in range(2, CANONICAL_MAX_MODULUS + 1):
            # the calls meet every residue below min(n, 64)
            low = min(n, 64)
            for mask in ((1 << low) - 2, (1 << low) - 2, (1 << (low - 1)) - 1):
                CyclicSet(n, mask).canonical_form()
                largest_gap_images(mask, n)
        assert max(groups._STACKS) == groups.STACK_MAX_MODULUS
        assert all(r is not None for s in groups._STACKS.values() for r in s.rows)
        assert sum(map(table_bytes, groups._STACKS.values())) <= 1 << 20
    finally:
        groups._STACKS.clear()


def test_canonical_form_above_the_stack_cap_keeps_no_rows():
    # a table built for one call at n = 512 drops each 16 KB row once read;
    # keeping all 256 rows peaked at 4.7 MB
    import tracemalloc

    n = 512
    s = CyclicSet.from_members(n, random.Random(512).sample(range(n), 256))
    tracemalloc.start()
    try:
        got = s.canonical_form()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.mask == min(affine_images_through_zero(s.mask, n))
    assert peak < 1 << 20


def _walk_images(mask, n):
    """The images through 0 whose wrap-around gap n - max is at least every internal gap."""
    want = set()
    for img in affine_images_through_zero(mask, n):
        b = sorted(members_of(img, n))
        if all(y - x <= n - b[-1] for x, y in zip(b, b[1:])):
            want.add(img)
    return want


def test_labellers_match_the_oracles_on_every_mask_up_to_11():
    # both labellers read each image as a window next to the copy and guard
    # bits of a stacked field; every mask at these moduli meets every offset
    for n in range(1, 12):
        for mask in range(1, 1 << n):
            assert canonical_mask(mask, n) == naive_canonical_mask(members_of(mask, n), n), (n, mask)
            assert set(largest_gap_images(mask, n)) == _walk_images(mask, n), (n, mask)


def test_largest_gap_images_are_the_orbit_masks_the_walk_reaches():
    # images through 0 whose wrap-around gap n - max is at least every
    # internal gap: exactly the masks the exhaustive witness walk visits
    rng = random.Random(14)
    cases = []
    for _ in range(300):
        n = rng.randrange(1, 25)
        members = random_nonempty_members(rng, n)
        cases.append((n, members, naive_orbit(members, n)))
    # the walk's range up to EXHAUSTIVE_CAP (40) and beyond, then moduli
    # whose unit stack is built per call; the full set, a point, a coset
    for n in [*range(25, 65), *rng.sample(range(65, 129), 4)]:
        d = rng.choice([d for d in range(2, n) if n % d == 0] or [n])
        for members in (range(n), [rng.randrange(n)], range(rng.randrange(d), n, d)):
            images = set(affine_images_through_zero(mask_of(members, n), n))
            cases.append((n, members, [members_of(m, n) for m in images]))
    for n, members, images in cases:
        want = set()
        for img in images:
            b = sorted(img)
            if b[0] == 0 and all(y - x <= n - b[-1] for x, y in zip(b, b[1:])):
                want.add(mask_of(b, n))
        assert set(largest_gap_images(mask_of(members, n), n)) == want, (n, sorted(members))


def test_affine_images_through_zero_are_the_orbit_masks_containing_0():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(1, 25)
        members = random_nonempty_members(rng, n)
        want = {mask_of(img, n) for img in naive_orbit(members, n) if 0 in img}
        assert set(affine_images_through_zero(mask_of(members, n), n)) == want


def test_canonical_cap():
    with pytest.raises(ValueError):
        CyclicSet.from_members(1024, [0, 1]).canonical_form()


def test_deficiency():
    assert CyclicSet.full(7).is_full()
    assert CyclicSet.from_members(7, [0, 1, 2, 3, 4, 6]).deficiency() == [5]
    assert CyclicSet.full(3).deficiency() == []


def _dense_cases():
    """(n, mask) up to n = 2^16: empty, full, and 1, 12, 13, n/2 and n - 1 members,
    so that both ways of listing members run at small and large n."""
    rng = random.Random(216)
    for n in (1, 2, 13, 63, 64, 65, 1000, 4099, 16384, 65536):
        full = (1 << n) - 1
        yield n, 0
        yield n, full
        for size in {min(n, s) for s in (1, 12, 13, n // 2, n - 1)}:
            yield n, mask_of(rng.sample(range(n), size), n)


def test_members_and_deficiency_match_oracle_on_dense_sets():
    for n, mask in _dense_cases():
        a = CyclicSet(n, mask)
        want = members_of(mask, n)
        assert a.members() == tuple(sorted(want)), n
        assert a.deficiency() == sorted(set(range(n)) - want), n
        assert a.to_literal() == f"{n}:{{{','.join(map(str, sorted(want)))}}}"


def test_affine_apply_matches_oracle_on_dense_sets():
    rng = random.Random(65536)
    for n, mask in _dense_cases():
        u = rng.choice([v for v in (1, 3, 5, 7, n - 1) if 0 <= v < n and gcd(v, n) == 1])
        c = rng.randrange(n)
        want = naive_affine_image(members_of(mask, n), u, c, n)
        assert CyclicSet(n, mask).affine_apply(AffineMap(u, c, n)).mask == naive_mask(want, n), n


def test_units_and_affine_count():
    assert units(1) == (0,)
    assert units(12) == (1, 5, 7, 11)


def test_rotate_mask_wraps():
    assert rotate_mask(0b101, 1, 3) == 0b011
    assert rotate_mask(0b1, 5, 5) == 0b1


@given(nonempty_sets)
def test_negate_is_involution(a):
    assert a.negate().negate() == a


@given(nonempty_sets)
def test_negate_matches_oracle(a):
    assert set(a.negate().members()) == naive_negate(set(a.members()), a.modulus)


@given(cyclic_sets, st.data())
def test_affine_preserves_cardinality(a, data):
    n = a.modulus
    u = data.draw(st.sampled_from(units(n)))
    c = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert a.affine_apply(AffineMap(u, c, n)).cardinality == a.cardinality


@settings(max_examples=60)
@given(nonempty_sets.filter(lambda a: a.modulus <= 14), st.data())
def test_canonical_invariant_under_affine_maps(a, data):
    n = a.modulus
    u = data.draw(st.sampled_from(units(n)))
    c = data.draw(st.integers(min_value=0, max_value=n - 1))
    image = a.affine_apply(AffineMap(u, c, n))
    assert image.canonical_form() == a.canonical_form()


@given(nonempty_sets)
def test_symmetry_center_verifies_literally(a):
    c = a.symmetry_center()
    if c is not None:
        n = a.modulus
        assert CyclicSet.from_members(n, [(2 * c - x) % n for x in a.members()]) == a


def _difference_multiset(a):
    n = a.modulus
    counts = [0] * n
    for x in a.members():
        for y in a.members():
            counts[(x - y) % n] += 1
    return counts


@given(nonempty_sets.filter(lambda a: a.modulus <= 14), st.data())
def test_difference_multiset_translation_invariant_unit_permuted(a, data):
    n = a.modulus
    c = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert _difference_multiset(a.translate(c)) == _difference_multiset(a)
    u = data.draw(st.sampled_from(units(n)))
    image = a.affine_apply(AffineMap(u, 0, n))
    base = _difference_multiset(a)
    permuted = _difference_multiset(image)
    assert sorted(base) == sorted(permuted)
    assert all(permuted[u * d % n] == base[d] for d in range(n))


def test_modulus_cap_enforced():
    from steinset.groups import MAX_MODULUS

    with pytest.raises(ValueError):
        CyclicSet(MAX_MODULUS + 1, 0)
    CyclicSet.empty(MAX_MODULUS)  # the cap itself is allowed
